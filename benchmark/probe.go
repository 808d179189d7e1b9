package main

import (
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host speed. On a shared 2-vCPU VM, other tenants slow the guest in
// stretches of seconds to minutes, by up to 2x, and the guest sees no
// steal time: an operation's wall time and its CPU time rise together.
// Run to run, that drift moved median operation times by 10-20%, more
// than a regression bound can allow. So every timed sample, and every
// set-up sample, is preceded by hostProbe: a fixed mix of work, written
// here in the benchmark so that no change to the program can move it.
// The sample's times are scaled by probeRef over that probe time, so
// they read as if measured on a host where the probe takes probeRef.
// The probe must run just before its sample: probing before every
// fourth sample instead of each one left 1.4-2.1x the run-to-run
// deviation. README.md has the measurements behind the mix.
const probeRef = 50 * time.Millisecond

// The probe's memory: a chase table of chaseLen entries (64 MiB) and a
// stream buffer of streamLen words (2 MiB) per goroutine. It is mapped
// outside the Go heap, so it neither adds to a measured heap nor moves
// the GC pacing of the process it runs in; it is first touched by the
// first probe, after tsimd has read its resident set.
const (
	chaseLen   = 1 << 24
	chaseSteps = 200_000
	streamLen  = 1 << 18
)

var (
	probeOnce   sync.Once
	probeChase  []uint32
	probeStream [2][]uint64
	probeSink   uint64
)

// hostProbe times the probe mix. The first call maps and fills the
// probe's memory and runs the mix once untimed.
func hostProbe() time.Duration {
	probeOnce.Do(initProbe)
	t0 := time.Now()
	probeMix()
	return time.Since(t0)
}

func initProbe() {
	words := chaseLen/2 + 2*streamLen
	mem, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	var w []uint64
	if err == nil {
		w = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)
	} else {
		w = make([]uint64, words)
	}
	probeChase = unsafe.Slice((*uint32)(unsafe.Pointer(&w[0])), chaseLen)
	probeStream[0], probeStream[1] = w[chaseLen/2:][:streamLen], w[chaseLen/2+streamLen:]
	// Entry i holds the successor of i under a full-period LCG modulo
	// chaseLen, so a chase from 0 jumps across the whole table and never
	// repeats within chaseSteps.
	for i := range probeChase {
		probeChase[i] = uint32((6364136223846793005*uint64(i) + 1442695040888963407) % chaseLen)
	}
	probeMix()
}

// probeMix is a chase of dependent loads through the 64 MiB table
// (memory latency, which other tenants' cache and memory traffic slow
// most), then integer hashing and a memory stream on two goroutines
// (both CPUs, as the sharded kernel uses them), then a goroutine
// ping-pong (the kernel's process handoff). It allocates nothing.
func probeMix() {
	p := uint32(0)
	for i := 0; i < chaseSteps; i++ {
		p = probeChase[p]
	}
	var wg sync.WaitGroup
	var sums [2]uint64
	for w := range sums {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := uint64(w + 1)
			for i := 0; i < 2_000_000; i++ {
				h ^= h << 13
				h ^= h >> 7
				h ^= h << 17
			}
			buf := probeStream[w]
			for r := 0; r < 24; r++ {
				for i := range buf {
					buf[i] += uint64(i) ^ h
				}
			}
			sums[w] = h + buf[len(buf)-1]
		}(w)
	}
	ping, pong := make(chan int), make(chan int)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < 30_000; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	wg.Wait()
	probeSink = uint64(p) + sums[0] + sums[1]
}

// hostFactor is probeRef over a probe time: 1 on a host as fast as the
// reference, below 1 on a slower one.
func hostFactor(probe time.Duration) float64 {
	if probe <= 0 {
		return 1
	}
	return float64(probeRef) / float64(probe)
}

// peakRSSMB is the process's peak resident set (VmHWM). The rusage a
// parent reads when a child exits would not do: Linux counts the
// parent's own peak toward a child started with vfork, as Go starts
// them.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// residentMB is the process's current resident set after a full GC
// that returns freed memory to the OS: its live footprint.
func residentMB() float64 {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
