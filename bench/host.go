package main

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: over minutes its speed
// drifts by up to a factor of two (see README.md, Calibration), far
// more than any regression bound the benchmark may set. The timed
// end-to-end metrics are therefore reported at a fixed host speed: the
// measured value scaled by how fast two reference kernels ran just
// before the first set-up and just after the fleet closed. The kernels
// share no code with the system under test and run while no fleet is
// up, so the code under test cannot move them.
//
// The nominal rates are those of a quiet 2-vCPU Xeon VM. They only fix
// the scale: on that VM a host speed of 1 leaves a value as measured.
const (
	chaseNominal  = 10.0   // cycle steps per µs, two goroutines
	streamNominal = 2700.0 // loopback TCP bytes per µs
	hostRounds    = 10     // bursts per kernel; each kernel's rate is their median
)

// hostSpeed is the host's speed relative to the nominal one: the
// geometric mean of the chase kernel's rate (random reads over a
// working set about as large as the bulk fleet's heap, on both cores)
// and the stream kernel's (loopback TCP copies), each over its nominal
// rate. Either kernel alone tracked some workloads' drift and missed
// others'; see README.md. The scale sets the chase's working set and
// the length of a burst.
func hostSpeed(sc scale) (speed float64, note string, err error) {
	cycle := newCycle(sc.cycleLen)
	runtime.GC()
	var chase, stream []float64
	for i := 0; i < hostRounds; i++ {
		chase = append(chase, chaseRate(cycle, sc.hostBurst))
		r, err := streamRate(sc.hostBurst)
		if err != nil {
			return 0, "", fmt.Errorf("host speed: %w", err)
		}
		stream = append(stream, r)
	}
	c, s := median(chase), median(stream)
	speed = math.Sqrt(c / chaseNominal * s / streamNominal)
	note = fmt.Sprintf("chase %.3g steps/µs, stream %.4g B/µs", c, s)
	if !(speed > 0) {
		return 0, "", fmt.Errorf("host speed: a reference kernel made no progress (%s)", note)
	}
	return speed, note, nil
}

// newCycle returns a random single cycle over n slots (Sattolo's
// shuffle), so a chase visits every slot in random order.
func newCycle(n int) []int32 {
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(i)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := len(a) - 1; i > 0; i-- {
		j := rng.IntN(i)
		a[i], a[j] = a[j], a[i]
	}
	return a
}

// chaseRate follows the cycle on two goroutines for d, and at least
// one block of steps each, and returns their total steps per µs.
func chaseRate(cycle []int32, d time.Duration) float64 {
	var wg sync.WaitGroup
	steps := make([]int, 2)
	start := time.Now()
	for g := range steps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := int32(g * len(cycle) / 2)
			for {
				for k := 0; k < 4096; k++ {
					x = cycle[x]
				}
				steps[g] += 4096
				if time.Since(start) >= d {
					return
				}
			}
		}()
	}
	wg.Wait()
	return float64(steps[0]+steps[1]) / float64(time.Since(start).Microseconds())
}

// streamRate writes 64 KiB blocks into a loopback TCP connection for d,
// and at least one block, while a second goroutine drains it, and
// returns bytes per µs.
func streamRate(d time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	got := make(chan int64, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- 0
			return
		}
		n, _ := io.Copy(io.Discard, c)
		c.Close()
		got <- n
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 64<<10)
	start := time.Now()
	for {
		if _, err := c.Write(buf); err != nil {
			c.Close()
			<-got
			return 0, err
		}
		if time.Since(start) >= d {
			break
		}
	}
	c.Close()
	n := <-got
	return float64(n) / float64(time.Since(start).Microseconds()), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
