package main

import (
	"context"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestListSmoke(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	for _, id := range []string{"T1", "T4", "F1"} {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("missing experiment %s in:\n%s", id, out.String())
		}
	}
}

func TestQuickSingleExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-quick", "-run", "T5"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	if out.Len() == 0 {
		t.Fatal("no table output")
	}
}

func TestCancelledRunStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errOut strings.Builder
	start := time.Now()
	code := run(ctx, nil, &out, &errOut)
	elapsed := time.Since(start)
	if code == 0 {
		t.Fatal("cancelled sweep reported success")
	}
	if !strings.Contains(errOut.String(), "cancelled") {
		t.Fatalf("stderr does not report cancellation:\n%s", errOut.String())
	}
	// The full (non-quick) sweep takes far longer than a second; a
	// pre-cancelled context must stop it almost immediately.
	if elapsed > time.Second {
		t.Fatalf("cancelled sweep took %s", elapsed)
	}
}

func TestUsageError(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(context.Background(), []string{"-bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for bad flag", code)
	}
}

// TestInterruptSignalCancelsSweep pins the signal wiring in main: a real
// SIGTERM caught by signal.NotifyContext cancels the sweep through the
// same cooperative path as -timeout.
func TestInterruptSignalCancelsSweep(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	type result struct {
		code   int
		stderr string
	}
	done := make(chan result, 1)
	go func() {
		var out, errOut strings.Builder
		code := run(ctx, nil, &out, &errOut) // full sweep: minutes of work
		done <- result{code, errOut.String()}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.code == 0 {
			t.Fatal("interrupted sweep should not exit 0")
		}
		if !strings.Contains(r.stderr, "cancelled") {
			t.Fatalf("stderr should report the cancellation: %s", r.stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not stop after SIGTERM")
	}
}
