// Package sim provides the simulated-time primitives every timing model in
// this repository shares: the picosecond Time type, cycle Clocks, occupancy
// Calendars and the watchdog Monitor.
//
// Replay is reservation-based: each component (DRAM banks and buses, HMC
// links and vaults, host cores, Charon processing units) reserves service
// on its own Calendar and returns the completion time, so no event queue
// is stepped. Time is measured in picoseconds so that components with
// different clock periods (e.g. the 0.937 ns DDR4 clock and the 1.6 ns HMC
// clock from Table 2 of the paper) can coexist without rounding drift.
package sim

// Time is a simulated instant or duration in picoseconds.
type Time uint64

// Common duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
	Second      Time = 1000 * 1000 * 1000 * 1000
)

// Seconds converts a simulated duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts a simulated duration to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Clock converts between an integer cycle domain and simulated time.
type Clock struct {
	Period Time // duration of one cycle in picoseconds
}

// NewClock returns a clock with the given period.
func NewClock(period Time) Clock { return Clock{Period: period} }

// Cycles converts a cycle count to a duration.
func (c Clock) Cycles(n uint64) Time { return Time(n) * c.Period }

// ToCycles converts a duration to whole cycles, rounding up.
func (c Clock) ToCycles(t Time) uint64 {
	if c.Period == 0 {
		return 0
	}
	return uint64((t + c.Period - 1) / c.Period)
}
