package a

type ev struct{ n int }

type node struct {
	// Merge/duty state: single-goroutine, no locks.
	//
	//aggvet:owner control
	pending int
	//aggvet:owner control
	final map[int]int

	events chan ev
}

// sortish stands in for sort.Slice: it calls a func value the graph
// cannot resolve.
func sortish(f func()) { f() }

// The owning loop: it and its same-goroutine callees may touch the
// annotated fields.
//
//aggvet:loop control
func (nd *node) control() {
	defer nd.cleanup()
	nd.pending++
	nd.step()
	sortish(func() { nd.pending-- }) // lexically loop code: fine
	sortish(func() { nd.viaLit() })  // and so is what it calls
	go nd.scan()
	go func() {
		nd.pending++ // want `field pending is owned by the "control" loop goroutine`
	}()
	for e := range nd.events {
		nd.final[e.n] = e.n
	}
}

func (nd *node) step() {
	nd.final[0] = 1
}

func (nd *node) viaLit() {
	nd.pending--
}

func (nd *node) cleanup() {
	nd.pending = 0
}

// scan runs on its own goroutine: it must send events, not write
// state.
func (nd *node) scan() {
	nd.pending++ // want `field pending is owned by the "control" loop goroutine`
	nd.events <- ev{n: 1}
}

// Never called from the loop at all.
func poke(nd *node) {
	nd.final[9] = 9 // want `field final is owned by the "control" loop goroutine`
}

// Construction uses composite-literal keys, not selectors: exempt.
func newNode() *node {
	return &node{
		pending: 0,
		final:   map[int]int{},
		events:  make(chan ev),
	}
}

// Unannotated fields are nobody's business.
func sendEvent(nd *node) {
	nd.events <- ev{n: 2}
}

// Suppressed with a rationale.
func joinRead(nd *node) int {
	return nd.pending //aggvet:allow loopown -- read after the control loop has exited
}
