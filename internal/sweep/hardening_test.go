package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPanicIsRecoveredAndSweepContinues(t *testing.T) {
	points := []int{0, 1, 2, 3, 4, 5}
	fn := func(_ context.Context, p int) (int, error) {
		if p == 2 {
			panic(fmt.Sprintf("boom on %d", p))
		}
		return p * p, nil
	}
	res, err := run(context.Background(), points, fn, Options{ContinueOnError: true})
	if err == nil {
		t.Fatal("run returned nil error despite a panicking point")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if !strings.Contains(pe.Error(), "boom on 2") || len(pe.Stack) == 0 {
		t.Errorf("panic details lost: %v (stack %d bytes)", pe, len(pe.Stack))
	}
	for _, r := range res {
		if r.Point == 2 {
			if !errors.As(r.Err, &pe) {
				t.Errorf("panicking point Err = %v, want PanicError", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Value != r.Point*r.Point {
			t.Errorf("healthy point %d degraded: %+v", r.Point, r)
		}
	}
}

func TestPanicIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	fn := func(_ context.Context, p int) (int, error) {
		calls.Add(1)
		panic("always")
	}
	res, _ := run(context.Background(), []int{1}, fn, Options{})
	if got := calls.Load(); got != 1 {
		t.Errorf("panicking point evaluated %d times, want 1", got)
	}
	if res[0].Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", res[0].Attempts)
	}
}

func TestPointTimeoutBoundsCooperativeFn(t *testing.T) {
	fn := func(ctx context.Context, p int) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(10 * time.Second):
			return p, nil
		}
	}
	start := time.Now()
	res, err := run(context.Background(), []int{1}, fn,
		Options{PointTimeout: 20 * time.Millisecond, ContinueOnError: true})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout did not bound the sweep (%v)", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Errorf("point Err = %v, want DeadlineExceeded", res[0].Err)
	}
}

func TestPointTimeoutAbandonsNonCooperativeFn(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	fn := func(_ context.Context, p int) (int, error) {
		if p == 0 {
			<-block // ignores ctx entirely
		}
		return p, nil
	}
	start := time.Now()
	res, err := run(context.Background(), []int{0, 1, 2}, fn,
		Options{Workers: 1, PointTimeout: 20 * time.Millisecond, ContinueOnError: true})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("non-cooperative fn hung the sweep (%v)", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	for _, r := range res[1:] {
		if r.Err != nil {
			t.Errorf("later point %d failed: %v", r.Point, r.Err)
		}
	}
}

func TestContinueOnErrorCompletesAllPoints(t *testing.T) {
	sentinel := errors.New("bad point")
	var evaluated atomic.Int64
	fn := func(_ context.Context, p int) (int, error) {
		evaluated.Add(1)
		if p%3 == 0 {
			return 0, sentinel
		}
		return p, nil
	}
	points := make([]int, 30)
	for i := range points {
		points[i] = i
	}
	res, err := run(context.Background(), points, fn, Options{Workers: 4, ContinueOnError: true})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if got := evaluated.Load(); got != int64(len(points)) {
		t.Errorf("evaluated %d of %d points", got, len(points))
	}
	var failed, ok int
	for _, r := range res {
		switch {
		case r.Err != nil:
			failed++
		default:
			ok++
		}
	}
	if failed != 10 || ok != 20 {
		t.Errorf("failed=%d ok=%d, want 10/20", failed, ok)
	}
}

func TestCancelledParentSuppressesRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	fn := func(_ context.Context, p int) (int, error) {
		calls.Add(1)
		cancel()
		return 0, errors.New("fails once parent is gone")
	}
	_, err := run(ctx, []int{1}, fn, Options{})
	if err == nil {
		t.Fatal("expected an error")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("retried %d times after parent cancellation, want 1 call", got)
	}
}
