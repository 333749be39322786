package sim

import "testing"

func TestClockConversions(t *testing.T) {
	// DDR4 tCK = 0.937ns = 937ps from Table 2.
	c := NewClock(937 * Picosecond)
	if got := c.Cycles(100); got != 93700 {
		t.Fatalf("Cycles(100) = %d, want 93700", got)
	}
	if got := c.ToCycles(93700); got != 100 {
		t.Fatalf("ToCycles = %d, want 100", got)
	}
	// Rounding up: one picosecond over needs one extra cycle.
	if got := c.ToCycles(93701); got != 101 {
		t.Fatalf("ToCycles round-up = %d, want 101", got)
	}
	if NewClock(0).ToCycles(12345) != 0 {
		t.Fatal("zero-period clock should yield 0 cycles")
	}
}

func TestTimeUnits(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatal("unit mismatch")
	}
	if got := (2 * Millisecond).Seconds(); got != 0.002 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := (3 * Nanosecond).Nanoseconds(); got != 3 {
		t.Fatalf("Nanoseconds = %v", got)
	}
}
