package core

import (
	"testing"
	"time"

	"cachecost/internal/meter"
	"cachecost/internal/workload"
)

// TestMeteringConservation checks the central invariant of the costing
// methodology: with a single-threaded driver, the busy time attributed
// across ALL components never exceeds the wall time of the metered
// window (no double counting), and covers most of it (no large blind
// spots) — otherwise the dollar figures would be fabricated.
func TestMeteringConservation(t *testing.T) {
	if raceEnabled {
		t.Skip("measured cost ratios are distorted by race-detector instrumentation")
	}
	for _, arch := range []Arch{Base, Remote, Linked, LinkedVersion} {
		t.Run(arch.String(), func(t *testing.T) {
			m := meter.NewMeter()
			gen := smallGen(13)
			svc, err := BuildKVService(smallCfg(arch, m), gen)
			if err != nil {
				t.Fatal(err)
			}
			// Warmup, then a timed window.
			for i := 0; i < 300; i++ {
				op := gen.Next()
				if op.Kind == workload.Read {
					svc.Read(op.Key)
				} else {
					svc.Write(op.Key, ValueFor(op.Key, op.ValueSize))
				}
			}
			m.Reset()
			t0 := time.Now()
			for i := 0; i < 800; i++ {
				op := gen.Next()
				if op.Kind == workload.Read {
					if _, err := svc.Read(op.Key); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := svc.Write(op.Key, ValueFor(op.Key, op.ValueSize)); err != nil {
						t.Fatal(err)
					}
				}
			}
			elapsed := time.Since(t0)
			busy := m.TotalBusy()
			if busy > elapsed*105/100 {
				t.Fatalf("attributed busy %v exceeds wall %v: double counting", busy, elapsed)
			}
			if busy < elapsed*40/100 {
				t.Fatalf("attributed busy %v is under 40%% of wall %v: blind spots", busy, elapsed)
			}
		})
	}
}

// TestSetupLeavesMeterUntouched pins set-up outside every bill: building
// a service and bulk-loading its storage leaves no busy time and no
// operations on any meter component, so nothing set-up did waits in the
// meter for a window that forgets to Reset.
func TestSetupLeavesMeterUntouched(t *testing.T) {
	assertUntouched := func(t *testing.T, m *meter.Meter) {
		t.Helper()
		for _, c := range m.Snapshot() {
			if c.Busy != 0 || c.Ops != 0 {
				t.Errorf("set-up metered %s: busy %v, %d ops", c.Name, c.Busy, c.Ops)
			}
		}
	}
	for _, arch := range []Arch{Base, Remote, Linked} {
		t.Run("kv/"+arch.String(), func(t *testing.T) {
			m := meter.NewMeter()
			if _, err := BuildKVService(smallCfg(arch, m), smallGen(1)); err != nil {
				t.Fatal(err)
			}
			assertUntouched(t, m)
		})
		t.Run("catalog/"+arch.String(), func(t *testing.T) {
			assertUntouched(t, newCatalogSvc(t, arch, ModeObject).m)
		})
	}
}
