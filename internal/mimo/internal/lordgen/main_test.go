package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckedInKernelIsCurrent regenerates the ML kernels and fails if the
// checked-in lord_gen.go differs from them.
func TestCheckedInKernelIsCurrent(t *testing.T) {
	want, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "lord_gen.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("internal/mimo/lord_gen.go is stale: run go generate ./internal/mimo")
	}
}
