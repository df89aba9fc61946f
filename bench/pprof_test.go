package main

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

var spinSink uint64

// spin burns CPU in this package until d has passed.
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// TestProfileReader profiles a busy loop and checks the reader attributes
// its CPU time to this package and that the layer shares sum to 1.
func TestProfileReader(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()

	w, err := packageWeights(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	self := funcPackage(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	var total int64
	for _, v := range w {
		total += v
	}
	if total == 0 || float64(w[self])/float64(total) < 0.8 {
		t.Fatalf("package %s holds %d of %d sampled ns: %v", self, w[self], total, w)
	}
	shares, err := hostShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if len(shares) != len(hostLayerNames()) || math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares %v sum to %v", shares, sum)
	}
	if shares["other"] < 0.8 {
		t.Errorf("the busy loop is outside the SVM's packages, yet other = %v", shares["other"])
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"sva/internal/vm.(*VM).step":                      "sva/internal/vm",
		"sva/internal/metapool.(*Pool).findCPU.func1":     "sva/internal/metapool",
		"runtime.mallocgc":                                "runtime",
		"main.spin":                                       "main",
		"sync/atomic.(*Pointer[go.shape.struct {}]).Load": "sync/atomic",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}
