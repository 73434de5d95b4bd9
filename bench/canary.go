package main

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// canary is the machine-speed reference the time metrics are calibrated
// against. This sandbox shares its memory system with other tenants, and
// their traffic slows every cache-missing loop in the repository (the POI
// slab scan, the Hausdorff head's distance reads) by 20–70 % for seconds to
// minutes at a time, while a pure ALU loop barely notices (README, noise
// rule 6). The canary is a fixed piece of memory-bound work that touches no
// repository code: a sequential sum over 8 MB and a dependent pointer chase,
// both through a 64 MB table, a different part of it every time so that no
// cache holds what a run reads, whatever the program under test left there.
// It runs a few times a second between ops, and a run reports its times as
// if the canary had taken canaryRefMs: measured × canaryRefMs / (the run's
// median canary). What a code change moves is kept; what the neighbours move
// is mostly cancelled.
type canary struct {
	mem   []byte   // the mapping behind table
	table []uint32 // table[p] is the successor of p on one cycle through all entries
	at    uint32   // where the next chase starts
	runs  int
	sink  uint64

	// paused is the total time spent inside run, which the phase subtracts
	// from its clock so that canaries do not count as the program's time.
	paused  atomic.Int64
	samples []float64 // ms, owned by the goroutine that calls run
}

const (
	// canaryRefMs is the canary's duration on this sandbox when nothing
	// disturbs it; a constant, so on another machine every calibrated time
	// is off by one common factor and comparisons are unaffected.
	canaryRefMs = 7.0
	canaryEvery = 200 * time.Millisecond

	canaryEntries = 1 << 24 // × 4 bytes = 64 MiB, larger than any cache here
	canaryWindow  = 1 << 21 // entries summed per run: 8 MiB
	canaryHops    = 20000
	canaryMB      = canaryEntries * 4 / (1 << 20)
)

// newCanary maps the table outside the Go heap: 64 MiB of live heap would
// double the garbage collector's target and change the pacing of the program
// under test.
func newCanary() (*canary, error) {
	mem, err := syscall.Mmap(-1, 0, canaryEntries*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the canary table: %w", err)
	}
	c := &canary{mem: mem, table: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), canaryEntries)}
	// A full-period linear congruential map (Hull–Dobell: c odd, a ≡ 1 mod
	// 4) visits every entry once per cycle in an order no prefetcher follows.
	for p := range c.table {
		c.table[p] = (uint32(p)*1664525 + 1013904223) & (canaryEntries - 1)
	}
	return c, nil
}

// close unmaps the table.
func (c *canary) close() {
	syscall.Munmap(c.mem) // fails only on a bad address, which mem is not
	c.mem, c.table = nil, nil
}

// run executes the canary once and records its duration.
func (c *canary) run() {
	t0 := time.Now()
	from := (c.runs * canaryWindow) % canaryEntries
	var sum uint64
	for _, v := range c.table[from : from+canaryWindow] {
		sum += uint64(v)
	}
	p := c.at
	for i := 0; i < canaryHops; i++ {
		p = c.table[p]
	}
	c.at, c.runs, c.sink = p, c.runs+1, c.sink+sum
	d := time.Since(t0)
	c.paused.Add(int64(d))
	c.samples = append(c.samples, ms(d))
}
