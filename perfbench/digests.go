package main

// Output digests pinned for the default seed (defaultSeed). They change only
// when simulation results change, like the repository's golden digests; a
// deliberate change re-pins them from a run's CHECK FAILED lines.
const (
	// pinnedFleetDigest covers the first fleetDigestDies cold die records.
	pinnedFleetDigest = "4713e9042ec623d675d9fa6a9d8569063ddc03b5ac72a12c92d9bb3e85545a89"
	// pinnedSweepDigest covers job 0's rows at %.17g.
	pinnedSweepDigest = "e8f34aad35e30c63b4794e2c3f16394bb8f18e9358a551f0c58c673838559d7d"
	// pinnedDaemonDigest covers the results of the stream's first
	// digestKeys distinct jobs.
	pinnedDaemonDigest = "e1ddb743ebf6a590c3e2f4280e5cf0911be911a2f3e8417d6f4db2a0918a4465"
)
