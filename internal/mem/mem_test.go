package mem

import "testing"

func TestUnloadedLatency(t *testing.T) {
	m := New(Config{LatencyCycles: 300, GapCycles: 4})
	if done := m.Access(100); done != 400 {
		t.Fatalf("done = %d, want 400", done)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	m := New(Config{LatencyCycles: 300, GapCycles: 4})
	// Burst of back-to-back requests at cycle 0: completions spaced by
	// the gap.
	var prev uint64
	for i := 0; i < 10; i++ {
		done := m.Access(0)
		want := uint64(i)*4 + 300
		if done != want {
			t.Fatalf("access %d: done=%d want %d", i, done, want)
		}
		if done <= prev && i > 0 {
			t.Fatal("completions not strictly increasing")
		}
		prev = done
	}
}

func TestIdleGapsDoNotAccumulate(t *testing.T) {
	m := New(Config{LatencyCycles: 100, GapCycles: 10})
	m.Access(0)
	// A request far in the future sees no queueing.
	if done := m.Access(1000); done != 1100 {
		t.Fatalf("done = %d, want 1100", done)
	}
}

func TestAccessCount(t *testing.T) {
	m := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		m.Access(uint64(i))
	}
	if m.Accesses() != 5 {
		t.Fatalf("Accesses = %d", m.Accesses())
	}
	m.Reset()
	if m.Accesses() != 0 {
		t.Fatal("Reset did not clear counter")
	}
	if done := m.Access(0); done != DefaultConfig().LatencyCycles {
		t.Fatalf("after reset done=%d", done)
	}
}

func TestZeroConfigFallsBackToDefault(t *testing.T) {
	m := New(Config{})
	if done := m.Access(0); done != DefaultConfig().LatencyCycles {
		t.Fatalf("zero config: done=%d", done)
	}
}

func TestWriteChannelDoesNotBlockReads(t *testing.T) {
	m := New(Config{LatencyCycles: 300, GapCycles: 4})
	// A large posted-write burst must not delay a subsequent read.
	for i := 0; i < 1000; i++ {
		m.AccessWrite(0)
	}
	if done := m.Access(0); done != 300 {
		t.Fatalf("read behind write burst: done=%d, want 300", done)
	}
	if m.writes != 1000 || m.Accesses() != 1 {
		t.Fatalf("counters: writes=%d reads=%d", m.writes, m.Accesses())
	}
}

func TestWriteChannelSerializesItself(t *testing.T) {
	m := New(Config{LatencyCycles: 100, GapCycles: 10})
	first := m.AccessWrite(0)
	second := m.AccessWrite(0)
	if second != first+10 {
		t.Fatalf("write drain times %d, %d", first, second)
	}
}
