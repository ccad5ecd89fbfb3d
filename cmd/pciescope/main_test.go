package main

import (
	"bytes"
	"strings"
	"testing"
)

// Bad transfer sizes fail with a message and an exit status, never a
// panic: a non-positive size at flag parsing (2), a size the GPU cannot
// hold when the traced run allocates it (1).
func TestRunRejectsBadSize(t *testing.T) {
	for _, tc := range []struct {
		size string
		code int
		msg  string
	}{
		{"0", 2, "pciescope: -size 0: want a positive transfer size"},
		{"-4K", 2, "pciescope: -size -4K: want a positive transfer size"},
		{"8G", 1, "pciescope: gpu: out of device memory"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-size", tc.size}, &stdout, &stderr); code != tc.code {
			t.Errorf("-size %s: exit %d, want %d (stderr %q)", tc.size, code, tc.code, stderr.String())
		}
		if !strings.HasPrefix(stderr.String(), tc.msg) {
			t.Errorf("-size %s: stderr %q, want it to start with %q", tc.size, stderr.String(), tc.msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("-size %s: wrote %q to stdout", tc.size, stdout.String())
		}
	}
}

func TestRunTracesTransfer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-size", "8K"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "# GPU_P2P_TX v2 window=32K size=8K: ") {
		t.Fatalf("unexpected output:\n%s", stdout.String())
	}
}
