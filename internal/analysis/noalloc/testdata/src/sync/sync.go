// Package sync is a hermetic stub of the standard library's sync for
// the lockcheck/lockguard fixtures: Mutex and RWMutex with the full
// method set the analyzers classify ("Mutex"/"RWMutex" named types in
// package path "sync"), and Pool for noalloc.
package sync

type Mutex struct{ state int }

func (m *Mutex) Lock()         {}
func (m *Mutex) Unlock()       {}
func (m *Mutex) TryLock() bool { return m.state == 0 }

type RWMutex struct{ state int }

func (m *RWMutex) Lock()          {}
func (m *RWMutex) Unlock()        {}
func (m *RWMutex) RLock()         {}
func (m *RWMutex) RUnlock()       {}
func (m *RWMutex) TryLock() bool  { return m.state == 0 }
func (m *RWMutex) TryRLock() bool { return m.state == 0 }

type Pool struct {
	New func() any
}

func (p *Pool) Get() any {
	if p.New != nil {
		return p.New()
	}
	return nil
}

func (p *Pool) Put(x any) {}
