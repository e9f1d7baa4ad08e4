package main

import (
	"math"
	"net"
	"syscall"
	"time"
	"unsafe"
)

// The probe is fixed work owned by the benchmark, timed between operations.
// This sandbox's speed drifts by tens of percent over minutes with its
// neighbours' use of the shared cache and memory, and the probe's time
// drifts with it (README: Calibration). A time divided by the speed factor
// of the readings taken alongside it therefore repeats across runs where
// the raw time does not. The probe never changes with the program, so a
// later change to the repository moves a calibrated time only by moving the
// raw one.

// probeEvery is the most an operation loop runs between two readings.
const probeEvery = 400 * time.Millisecond

// probeReading is one timing, in ms, of each of the probe's three parts:
// the costs that drift here.
type probeReading struct {
	mem  float64 // random read-modify-writes over 32 MiB: cache misses
	wake float64 // two goroutines handing a value back and forth: scheduler wake-ups
	tcp  float64 // one-byte round trips over loopback TCP: system calls
}

// probeRef is what the parts read on this sandbox in a quiet spell. It
// only fixes the unit: a calibrated time is what the clock would have read
// had the probe read probeRef.
var probeRef = probeReading{mem: 14, wake: 4.2, tcp: 1.2}

// speedFactor is how much slower than probeRef the machine ran while rs
// were read: the geometric mean, over the three parts, of the median
// reading over its reference. The parts weigh the same on every workload.
func speedFactor(rs []probeReading) float64 {
	part := func(get func(probeReading) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = get(r)
		}
		return median(xs) / get(probeRef)
	}
	return math.Cbrt(part(func(r probeReading) float64 { return r.mem }) *
		part(func(r probeReading) float64 { return r.wake }) *
		part(func(r probeReading) float64 { return r.tcp }))
}

func takeProbe() probeReading {
	var r probeReading
	start := time.Now()
	probeMem(1 << 20)
	r.mem = ms(time.Since(start))
	start = time.Now()
	probeWake(10000)
	r.wake = ms(time.Since(start))
	start = time.Now()
	probeTCP(200)
	r.tcp = ms(time.Since(start))
	return r
}

// probeWords is the length of the probe's array: 32 MiB, well past the
// 4 MiB L2, mapped outside the Go heap so the heap metrics do not see it.
const probeWords = 4 << 20

var probeArr = func() []uint64 {
	b, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("benchmark: map the probe's array: " + err.Error())
	}
	arr := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), probeWords)
	for i := range arr {
		arr[i] = uint64(i)
	}
	return arr
}()

func probeMem(steps int) {
	x := uint64(1)
	for i := 0; i < steps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		probeArr[(x>>33)%probeWords] += x
	}
}

func probeWake(trips int) {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	for i := 0; i < trips; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
}

// probeConn is the client end of a loopback connection whose other end
// echoes every byte.
var probeConn = func() net.Conn {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic("benchmark: probe listener: " + err.Error())
	}
	defer ln.Close()
	dialed := make(chan net.Conn)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			panic("benchmark: probe dial: " + err.Error())
		}
		dialed <- c
	}()
	server, err := ln.Accept()
	if err != nil {
		panic("benchmark: probe accept: " + err.Error())
	}
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
			if _, err := server.Write(buf); err != nil {
				return
			}
		}
	}()
	return <-dialed
}()

func probeTCP(trips int) {
	buf := make([]byte, 1)
	for i := 0; i < trips; i++ {
		if _, err := probeConn.Write(buf); err != nil {
			panic("benchmark: probe write: " + err.Error())
		}
		if _, err := probeConn.Read(buf); err != nil {
			panic("benchmark: probe read: " + err.Error())
		}
	}
}
