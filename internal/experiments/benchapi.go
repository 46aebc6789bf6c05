package experiments

// The frozen benchmark API: perfbench (the repository benchmark, which is
// never edited) calls these by signature, and nothing else may. Each one
// only translates its arguments into a Cell and calls Eval, so the
// benchmark measures the one path the product runs. tools/census fails
// when a non-test file outside perfbench calls one, when one is declared
// outside a benchapi.go, and when perfbench stops using one.

import (
	"context"

	"killi/internal/gpu"
	"killi/internal/protection"
	"killi/internal/simcache"
)

// RunOne runs a single workload × scheme pair at the given voltage and
// returns the raw result, never consulting a cache: cfg's Cell for the
// pair, evaluated with newScheme. A nominal 1.0-voltage run keeps the zero
// class spec, matching the sweep's baseline. Cancelling ctx stops the run
// at the next kernel boundary and returns ctx.Err().
func RunOne(ctx context.Context, cfg Config, workloadName string, newScheme protection.Factory, voltage float64) (gpu.Result, error) {
	c, err := cfg.Cell(workloadName, "", voltage)
	if err != nil {
		return gpu.Result{}, err
	}
	res, _, err := c.Eval(ctx, nil, Sim{NewScheme: newScheme, Shards: cfg.Shards})
	return res, err
}

// RunOneNamed is RunOne with the scheme given by its SchemeSyntax name and,
// when cfg.CacheDir is set, the result cache consulted first under the
// Cell's key, which a sweep with the same inputs shares. Cached results
// carry no debug Counters.
func RunOneNamed(ctx context.Context, cfg Config, workloadName, schemeName string, voltage float64) (gpu.Result, error) {
	newScheme, err := SchemeFactoryByName(schemeName)
	if err != nil {
		return gpu.Result{}, err
	}
	c, err := cfg.Cell(workloadName, schemeName, voltage)
	if err != nil {
		return gpu.Result{}, err
	}
	var store *simcache.Store
	if cfg.CacheDir != "" {
		if store, err = simcache.Open(cfg.CacheDir); err != nil {
			return gpu.Result{}, err
		}
	}
	res, _, err := c.Eval(ctx, store, Sim{NewScheme: newScheme, Shards: cfg.Shards})
	return res, err
}

// CellKey returns the simcache key of the cell with these inputs and no
// scrubbing: Cell.Key.
func CellKey(g gpu.Config, schemeName, workloadName string, seed uint64, requests, warmup int) string {
	return Cell{GPU: g, Scheme: schemeName, Workload: workloadName, Seed: seed, Requests: requests, Warmup: warmup}.Key()
}
