package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on is a shared VM whose speed drifts: the
// same spr-field runs took 20% more CPU time at one moment than a quarter of
// an hour later, and steal adds more. A fixed reference kernel therefore
// runs after every op, and every time metric is scaled by calibNominal over
// the kernel's mean CPU time near that op: the metrics read as CPU time on a
// host where the kernel takes calibNominal. The kernel runs in a child
// process, so its cost does not depend on the program's heap or goroutines.

// calibNominal is about the kernel's mean CPU time on the 2-vCPU Xeon VM the
// benchmark was built on; it only sets the scale of the time metrics.
const calibNominal = 15 * time.Millisecond

// calibSteps is the kernel's size: about calibNominal of CPU time.
const calibSteps = 100_000

// calibNode is the kernel's heap object, about the size of a simulator
// event or packet header.
type calibNode struct {
	key  int
	next *calibNode
	val  [4]uint64
}

var calibSink uint64

// calibKernel is the reference work: inserts, lookups and deletes in a map
// of small heap objects linked into short chains. It allocates, hashes,
// chases pointers and keeps the GC busy, the mix the simulator's own CPU
// time moves with; over fourteen minutes of drift its ratio to spr-field
// op time stayed within 7% of its median, where pointer-chasing and
// arithmetic kernels moved by 20-50%.
func calibKernel() {
	m := make(map[int]*calibNode, 1024)
	var prev *calibNode
	z := uint64(99)
	for i := 0; i < calibSteps; i++ {
		z = z*6364136223846793005 + 1442695040888963407
		k := int(z>>40) & 8191
		if p, ok := m[k]; ok {
			calibSink += p.val[0]
			delete(m, k)
			continue
		}
		x := &calibNode{key: k, next: prev}
		x.val[0] = z
		m[k] = x
		prev = x
		if i%64 == 0 {
			prev = nil
		}
	}
}

// serveCalibration is the child process: for every byte read from in it
// runs the kernel once and writes the process CPU time it took, in
// nanoseconds, as one line to out. It returns at the end of in.
func serveCalibration(in io.Reader, out io.Writer) error {
	r := bufio.NewReader(in)
	w := bufio.NewWriter(out)
	for {
		if _, err := r.ReadByte(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		t0 := cpuTime()
		calibKernel()
		fmt.Fprintln(w, int64(cpuTime()-t0))
		if err := w.Flush(); err != nil {
			return err
		}
	}
}

// calibWarmup is how many samples startCalibrator discards: the child's
// first runs grow its heap.
const calibWarmup = 5

// calibrator is the parent's end of the child process.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startCalibrator starts this program again as the calibration child.
func startCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-calibrate")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}
	for i := 0; i < calibWarmup; i++ {
		if _, err := c.sample(); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// sample runs the kernel once in the child and returns its CPU time.
func (c *calibrator) sample() (time.Duration, error) {
	if _, err := c.in.Write([]byte{1}); err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil || ns <= 0 {
		return 0, fmt.Errorf("calibration: bad sample %q", line)
	}
	return time.Duration(ns), nil
}

// close ends the child and waits for it to exit.
func (c *calibrator) close() error {
	c.in.Close()
	return c.cmd.Wait()
}

// speedFactor is calibNominal over the mean of the samples: the factor that
// turns CPU time measured beside them into CPU time at the reference speed.
// A mean, not a median: steal comes in bursts, an op long enough to span
// several always pays its share, and only the mean of the short samples
// beside it does too.
func speedFactor(samples []float64) float64 {
	var sum float64
	for _, x := range samples {
		sum += x
	}
	return ratio(ms(calibNominal)*float64(len(samples)), sum)
}
