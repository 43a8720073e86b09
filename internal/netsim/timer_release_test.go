//go:build go1.24

package netsim

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

type pinned struct{ buf [4096]byte }

// scheduleCapturing schedules a timer whose closure is the only
// reference to a fresh object, and returns a weak pointer to it.
func scheduleCapturing(n *Network) (Timer, weak.Pointer[pinned]) {
	p := &pinned{}
	return n.Schedule(time.Hour, func() { p.buf[0]++ }), weak.Make(p)
}

// A stopped timer stays queued until its deadline; what its callback
// captured must not stay live with it.
func TestStoppedTimerReleasesClosure(t *testing.T) {
	n := New(1)
	live, liveRef := scheduleCapturing(n)
	stopped, stoppedRef := scheduleCapturing(n)
	stopped.Stop()
	runtime.GC()
	if liveRef.Value() == nil {
		t.Fatal("an active timer's closure was collected")
	}
	if stoppedRef.Value() != nil {
		t.Fatal("a stopped timer still pins its closure's captures")
	}
	if n.queued != 2 || n.Pending() != 1 {
		t.Fatalf("queued %d pending %d, want the stopped event still queued", n.queued, n.Pending())
	}
	n.RunFor(2 * time.Hour)
	if live.Active() || n.Pending() != 0 || n.queued != 0 {
		t.Fatalf("queued %d pending %d after the deadline", n.queued, n.Pending())
	}
}
