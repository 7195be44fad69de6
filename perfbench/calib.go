package main

import (
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on a few vCPUs of a shared host whose speed drifts
// by up to 3x over minutes, as other tenants come and go. A latency
// measured in one run and compared with one measured minutes later
// mostly compares the host with itself. So every end-to-end timing is
// reported at a fixed reference speed: the run times a fixed CPU kernel
// (kernelCost) over and over while it measures, in the thread CPU time
// of the kernel's own thread, and scales each timing by kernelRef over
// the kernel's mean cost in that run. The kernel is plain Go that calls
// nothing of the program and allocates nothing, its data fits in the
// first-level cache, and thread CPU time leaves out time the thread
// waited for a CPU, so neither the program's code nor its background
// goroutines change the kernel's cost; the speed at which the host
// executes it does.

// kernelRef is the kernel's cost the timings are scaled to: its mean
// cost on the 2-vCPU host the benchmark was written on. It only sets the
// scale of the reported numbers.
const kernelRef = 500 * time.Microsecond

// kernelCost runs the calibration kernel once on a locked OS thread and
// returns the thread CPU time it took.
func kernelCost() time.Duration {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	mulKernel()
	textKernel()
	return threadCPU() - t0
}

// kernelSink keeps the kernels' results live.
var kernelSink uint64

// mulKernel is the arithmetic half: schoolbook products of 1024-bit
// numbers in 64-bit limbs, the inner loop of RSA signing.
func mulKernel() {
	var a, b [16]uint64
	for i := range a {
		a[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
		b[i] = uint64(i)*0xBF58476D1CE4E5B9 + 3
	}
	var acc uint64
	for r := 0; r < 600; r++ {
		var t [17]uint64
		for i := range a {
			var c uint64
			for j := range b {
				hi, lo := bits.Mul64(a[i], b[j])
				var cc uint64
				lo, cc = bits.Add64(lo, t[j], 0)
				hi += cc
				lo, cc = bits.Add64(lo, c, 0)
				hi += cc
				t[j], c = lo, hi
			}
			t[16] = c
			b[i] ^= t[i]
		}
		acc += t[16]
	}
	kernelSink += acc
}

// kernelText is the text half's input: clause-shaped words.
var kernelText = strings.Repeat("may(u12, o7, read) member(u12, g3) grant(g3, o7, read) says(hr, rm, note(b4, 17)) ", 20)

type kernelRow struct {
	key string
	n   int
}

// The text half's buffers, reused so the kernel does not allocate after
// its first run; kernelMu serializes kernel runs.
var (
	kernelMu     sync.Mutex
	kernelFields []string
	kernelMap    = map[string]int{}
	kernelRows   []kernelRow
	kernelBuf    []byte
)

// textKernel is the other half: split clause text into words, count
// them in a map, sort rows and format them, the kind of work parsing,
// evaluation and encoding do.
func textKernel() {
	for r := 0; r < 4; r++ {
		kernelFields = kernelFields[:0]
		start := -1
		for i := 0; i < len(kernelText); i++ {
			c := kernelText[i]
			sep := c == ' ' || c == '(' || c == ')' || c == ','
			if sep && start >= 0 {
				kernelFields = append(kernelFields, kernelText[start:i])
				start = -1
			} else if !sep && start < 0 {
				start = i
			}
		}
		clear(kernelMap)
		for i, f := range kernelFields {
			kernelMap[f] += i
		}
		kernelRows = kernelRows[:0]
		for i := 0; i+1 < len(kernelFields); i += 2 {
			kernelRows = append(kernelRows, kernelRow{kernelFields[i], kernelMap[kernelFields[i+1]]})
		}
		slices.SortFunc(kernelRows, func(x, y kernelRow) int {
			if c := strings.Compare(x.key, y.key); c != 0 {
				return c
			}
			return x.n - y.n
		})
		kernelBuf = kernelBuf[:0]
		for _, row := range kernelRows {
			kernelBuf = append(kernelBuf, row.key...)
			kernelBuf = strconv.AppendInt(kernelBuf, int64(row.n), 10)
		}
		kernelSink += uint64(len(kernelBuf))
	}
}
