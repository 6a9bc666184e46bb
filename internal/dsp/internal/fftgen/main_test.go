package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckedInKernelIsCurrent regenerates the 64-point kernel and fails if
// the checked-in fft64_gen.go differs from it.
func TestCheckedInKernelIsCurrent(t *testing.T) {
	want, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "fft64_gen.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("internal/dsp/fft64_gen.go is stale: run go generate ./internal/dsp")
	}
}
