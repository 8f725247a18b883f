package des

// Resource is an exclusive-use resource granted in FIFO order: a CPU, a
// disk arm, or a shared network bus. A process acquires the resource,
// spends virtual time holding it, and releases it; waiters are granted the
// resource in arrival order.
type Resource struct {
	sim     *Simulation
	name    string
	busy    bool
	holder  *Proc
	waiters []*Proc

	// BusyTime accumulates the total virtual time this resource has been
	// held via Use, for utilisation reporting.
	BusyTime Duration

	// MaxWaiters is the high-water mark of the waiter queue — how
	// contended the resource got at its worst moment.
	MaxWaiters int
}

// Name returns the name given to NewResource.
func (r *Resource) Name() string { return r.name }

// NewResource returns an idle resource. The name appears in deadlock
// reports.
func (s *Simulation) NewResource(name string) *Resource {
	return &Resource{sim: s, name: name}
}

// Acquire blocks p until it holds the resource.
func (r *Resource) Acquire(p *Proc) {
	if !r.busy {
		r.busy = true
		r.holder = p
		return
	}
	r.waiters = append(r.waiters, p)
	if len(r.waiters) > r.MaxWaiters {
		r.MaxWaiters = len(r.waiters)
	}
	p.park("resource " + r.name)
	// Ownership was transferred to us by Release before we were woken.
}

// Release gives up the resource, granting it to the longest-waiting process
// if any. It panics if p is not the current holder.
func (r *Resource) Release(p *Proc) {
	if !r.busy || r.holder != p {
		panic("des: Release of resource " + r.name + " by non-holder " + p.name)
	}
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.holder = w
		r.sim.schedule(r.sim.now, w)
		return
	}
	r.busy = false
	r.holder = nil
}

// Use acquires the resource, holds it for d, and releases it. This is the
// normal way to model a timed exclusive operation (a disk I/O, a burst of
// CPU work, one packet on a shared bus).
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Delay(d)
	r.BusyTime += d
	r.Release(p)
}

// QueueLen reports how many processes are waiting for the resource.
func (r *Resource) QueueLen() int { return len(r.waiters) }
