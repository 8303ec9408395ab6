// Package lib exercises context discipline below the command layer.
package lib

import "context"

// Fetch takes ctx second: flagged.
func Fetch(name string, ctx context.Context) error { // want `exported Fetch takes context\.Context as parameter 2`
	return ctx.Err()
}

// Ctx names context.Context through an alias.
type Ctx = context.Context

// FetchAliased takes ctx second under the alias's name: flagged.
func FetchAliased(name string, ctx Ctx) error { // want `exported FetchAliased takes context\.Context as parameter 2`
	_ = name
	return ctx.Err()
}

// Get takes ctx first: passes.
func Get(ctx context.Context, name string) error {
	_ = name
	return ctx.Err()
}

// helper is unexported: parameter order is its own business.
func helper(name string, ctx context.Context) error {
	_ = name
	return ctx.Err()
}

// Detach manufactures a root context in a library: flagged.
func Detach() context.Context {
	return context.Background() // want `context\.Background below cmd/`
}

// Todo postpones the decision, which is the same detachment: flagged.
func Todo() context.Context {
	return context.TODO() // want `context\.TODO below cmd/`
}

// Root is the sanctioned detached context, with the reason recorded.
func Root() context.Context {
	//rapwam:allow ctxfirst fixture mirrors a shutdown drain that must outlive the context that triggered it
	return context.Background()
}

// WaitStale polls a bool captured before the loop: cancellation
// checked once is cancellation ignored. Flagged.
func WaitStale(ctx context.Context, work []int) int {
	done := ctx.Err() != nil
	n := 0
	for !done { // want `loop condition reads bool "done" captured before the loop`
		if n >= len(work) {
			return n
		}
		n += work[n%len(work)]
	}
	return n
}

// WaitLive refreshes the flag from ctx.Err() inside the loop: passes.
func WaitLive(ctx context.Context, work []int) int {
	done := false
	n := 0
	for !done {
		if n >= len(work) {
			return n
		}
		n += work[n%len(work)]
		done = ctx.Err() != nil
	}
	return n
}

var _ = helper
