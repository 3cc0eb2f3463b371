package mem

import "testing"

// TestDerivedViewsAllocFree pins the derived-view paths at zero
// allocations while the allocation itself stays live: a RecoverPtr view
// shared with a second holder through IncRef, and a SubView, each recycle
// their struct when their own holders are done even though the slot's
// refcount never reaches zero.
func TestDerivedViewsAllocFree(t *testing.T) {
	a := NewAllocator()
	buf := a.Alloc(4096)
	p := buf.Bytes()[512:1536]
	use := func() {
		r, ok := a.RecoverPtr(p)
		if !ok {
			t.Fatal("recover failed")
		}
		r.IncRef() // a second holder of the same view (the NIC's DMA)
		r.DecRef()
		r.DecRef()
		s := buf.SubView(8, 64)
		s.DecRef()
	}
	use()
	if allocs := testing.AllocsPerRun(100, use); allocs != 0 {
		t.Fatalf("derived views allocated %.2f times (want 0)", allocs)
	}
	if buf.Refcount() != 1 {
		t.Fatalf("refcount %d after the derived views are gone, want 1", buf.Refcount())
	}
}

// TestDerivedViewRecyclesOnlyWithItsHolders checks that a derived view
// outlives the DecRef of the view it came from and of other holders'
// views, and is parked (slab cleared) exactly when its own last holder
// lets go — while an allocation's own view stays readable after its
// owner's DecRef as long as the slot is alive.
func TestDerivedViewRecyclesOnlyWithItsHolders(t *testing.T) {
	a := NewAllocator()
	buf := a.Alloc(256)
	copy(buf.Bytes(), "payload")
	v, _ := a.RecoverPtr(buf.Bytes()[:7])
	v.IncRef()
	buf.DecRef() // the owner lets go; v's two holds keep the slot
	if buf.Refcount() != 2 || string(v.Bytes()) != "payload" {
		t.Fatalf("after owner DecRef: refcount %d, view %q", buf.Refcount(), v.Bytes())
	}
	v.DecRef()
	if v.slab == nil {
		t.Fatal("derived view parked while it still had a holder")
	}
	v.DecRef()
	if v.slab != nil {
		t.Fatal("derived view not parked after its last holder")
	}
	if a.Stats().SlotsInUse != 0 {
		t.Fatal("slot not freed with its last reference")
	}
}
