package storage

import (
	"sync"
	"testing"
	"time"

	"bpwrapper/internal/page"
)

// TestDeviceContract runs every in-repo Device through the Device
// contract: WritePage does not retain the caller's page (mutating it after
// the write returns must not change what a read gets back), and ReadPage
// fills the caller's page completely (a read into a page full of garbage
// comes back exactly equal to the stored image).
func TestDeviceContract(t *testing.T) {
	devices := []struct {
		name string
		new  func() Device
		// persists is false for a device that discards writes; its
		// reads keep returning the synthesized stamp.
		persists bool
	}{
		{"MemDevice", func() Device { return NewMemDevice() }, true},
		{"NullDevice", func() Device { return NewNullDevice() }, false},
		{"SimDisk", func() Device {
			return NewSimDisk(NewMemDevice(), SimDiskConfig{ReadLatency: time.Microsecond})
		}, true},
		{"FaultDevice", func() Device { return NewFaultDevice(NewMemDevice(), FaultConfig{}) }, true},
		{"RetryDevice", func() Device { return NewRetryDevice(NewMemDevice(), RetryConfig{}) }, true},
		{"ChecksumDevice", func() Device { return NewChecksumDevice(NewMemDevice()) }, true},
		{"DeadlineDevice", func() Device { return NewDeadlineDevice(NewMemDevice(), DeadlineConfig{}) }, true},
		{"BreakerDevice", func() Device { return NewBreakerDevice(NewMemDevice(), BreakerConfig{}) }, true},
	}
	for _, tc := range devices {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.new()
			id := pid(9)
			var want page.Page
			if tc.persists {
				want.Stamp(id + 1<<20) // bytes the device never synthesizes
				want.ID = id
			} else {
				want.Stamp(id)
			}
			w := want
			if err := d.WritePage(&w); err != nil {
				t.Fatal(err)
			}
			for i := range w.Data {
				w.Data[i] ^= 0xFF
			}
			var r page.Page
			for i := range r.Data {
				r.Data[i] = 0xA5
			}
			if err := d.ReadPage(id, &r); err != nil {
				t.Fatal(err)
			}
			if r.ID != id {
				t.Fatalf("read back ID %v, want %v", r.ID, id)
			}
			if r.Data != want.Data {
				t.Fatal("read back differs from the written image: the device retained the caller's page or filled the read only partly")
			}
		})
	}
}

// TestMemDeviceConcurrentSamePage races readers against writers of one
// page. WritePage overwrites the stored array in place, so a read must copy
// under the shard lock: every read returns one whole written image, never a
// mix of two. Run under -race it also proves the accesses are ordered.
func TestMemDeviceConcurrentSamePage(t *testing.T) {
	d := NewMemDevice()
	id := pid(4)
	image := func(v byte) *page.Page {
		p := &page.Page{ID: id}
		for i := range p.Data {
			p.Data[i] = v
		}
		return p
	}
	if err := d.WritePage(image(1)); err != nil {
		t.Fatal(err)
	}
	const writers, readers, rounds = 2, 2, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := d.WritePage(image(byte(1 + (w*rounds+i)%250))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p page.Page
			for i := 0; i < rounds; i++ {
				if err := d.ReadPage(id, &p); err != nil {
					t.Error(err)
					return
				}
				v := p.Data[0]
				for j, b := range p.Data {
					if b != v {
						t.Errorf("torn read: byte %d is %d, byte 0 is %d", j, b, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
