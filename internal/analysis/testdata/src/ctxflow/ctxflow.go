// Package ctxflow is the golden fixture for the cancellation-propagation
// analyzer: ctx-aware functions with unguarded block points, and the
// guarded shapes that are fine.
package ctxflow

import "context"

// WaitGroup models sync.WaitGroup (matched by type name) so the fixture
// stays stdlib-light.
type WaitGroup struct{}

func (g *WaitGroup) Wait() {}

// Feed holds a ctx but lets four block points ignore it.
func Feed(ctx context.Context, work chan int, out chan int) {
	work <- 1        // want `channel send can block past cancellation`
	<-out            // want `channel receive can block past cancellation`
	for range work { // want `ranging over a channel blocks past cancellation`
	}
	select { // want `select without a ctx\.Done arm or default`
	case v := <-work:
		_ = v
	case out <- 2:
	}
}

// Guarded shows the accepted shapes: a ctx.Done arm, a done-var arm, a
// default arm, and blocking on the cancellation signal itself.
func Guarded(ctx context.Context, work chan int) {
	select {
	case work <- 1:
	case <-ctx.Done():
		return
	}
	done := ctx.Done()
	select {
	case v := <-work:
		_ = v
	case <-done:
	}
	select {
	case work <- 2:
	default:
	}
	<-ctx.Done()
}

// pool carries its ctx as a field, the worker shape: its methods are
// ctx-aware too.
type pool struct {
	ctx  context.Context
	feed chan int
}

func (p *pool) drain() {
	<-p.feed // want `channel receive can block past cancellation`
}

// Gather waits on a WaitGroup with no bound in sight.
func Gather(ctx context.Context, wg *WaitGroup) {
	wg.Wait() // want `WaitGroup\.Wait can block past cancellation`
}

// NoCtx has no cancellation to propagate: out of scope.
func NoCtx(ch chan int) {
	ch <- 1
	<-ch
}
