package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckedInKernelIsCurrent regenerates the ACS kernel from the taps in
// conv.go and fails if the checked-in acs_gen.go differs from it.
func TestCheckedInKernelIsCurrent(t *testing.T) {
	pkg := filepath.Join("..", "..")
	src, err := os.ReadFile(filepath.Join(pkg, "conv.go"))
	if err != nil {
		t.Fatal(err)
	}
	genA, genB, err := taps(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := generate(genA, genB)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(pkg, "acs_gen.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("internal/fec/acs_gen.go is stale: run go generate ./internal/fec")
	}
}

func TestTapsAndGenerateValidate(t *testing.T) {
	a, b, err := taps([]byte("package fec\n\nconst (\n\tgenA = 0o133\n\tgenB = 0o171\n)\n"))
	if err != nil || a != 0o133 || b != 0o171 {
		t.Fatalf("taps = %#o, %#o, %v; want 0133, 0171", a, b, err)
	}
	for _, src := range []string{
		"package fec\n\nconst genA = 0o133\n",
		"package fec\n\nconst (\n\tgenA = 0o133\n\tgenB = 0o1171\n)\n",
		"package fec\n\nconst (\n\tgenA = 0o133\n\tgenB = genA\n)\n",
	} {
		if _, _, err := taps([]byte(src)); err == nil {
			t.Errorf("taps accepted %q", src)
		}
	}
	// 0o132 lacks the oldest-bit tap, so its butterfly edges do not pair up.
	if _, err := generate(0o132, 0o171); err == nil {
		t.Error("generate accepted a generator that misses a register end")
	}
}
