package pmem

// Crash simulation: while tracking is enabled the device records every
// store together with its fence epoch. A crash image is any state
// reachable under the persistence model: all stores from epochs before the
// crash epoch are durable, while stores inside the crash epoch may have
// reached the media in any subset (hardware may reorder stores between
// fences). CrashImage materialises one such state as a fresh Device.

// PersistRecord is one tracked store.
type PersistRecord struct {
	Epoch int
	Off   int64
	Data  []byte
}

// EnableTracking snapshots the current contents as the durable base state
// and starts recording stores and fences.
func (d *Device) EnableTracking() {
	d.tracking = true
	d.records = nil
	d.epoch = 0
	d.base = make(map[int64]*[pageSize]byte, len(d.pages))
	for pg, p := range d.pages {
		cp := *p
		d.base[pg] = &cp
	}
}

// Records returns the tracked stores in program order. The result is a
// deep copy: callers must not be able to corrupt the device's own record
// stream through it, which CrashImage replays.
func (d *Device) Records() []PersistRecord {
	if len(d.records) == 0 {
		return nil
	}
	out := make([]PersistRecord, len(d.records))
	for i, r := range d.records {
		data := make([]byte, len(r.Data))
		copy(data, r.Data)
		out[i] = PersistRecord{Epoch: r.Epoch, Off: r.Off, Data: data}
	}
	return out
}

// Epoch returns the current fence epoch (number of fences so far).
func (d *Device) Epoch() int { return d.epoch }

// CrashImage builds a post-crash device: the tracked base state plus the
// records whose indexes appear in applied, applied in ascending index
// order. Callers are responsible for choosing a persistence-legal subset
// (all records of earlier epochs plus any subset of one epoch); package
// crashmonkey builds its subsets from EpochBounds.
func (d *Device) CrashImage(applied []int) *Device {
	img := New(d.eng, d.model, d.size)
	for pg, p := range d.base {
		cp := *p
		img.pages[pg] = &cp
	}
	for _, i := range applied {
		r := d.records[i]
		img.WriteAt(r.Off, r.Data)
	}
	return img
}

// EpochBounds returns, for each epoch e in [0, Epoch()], the half-open
// record index range [starts[e], starts[e+1]) of stores issued in e.
// len(result) == Epoch()+2.
func (d *Device) EpochBounds() []int {
	starts := make([]int, d.epoch+2)
	cur := 0
	for i, r := range d.records {
		for cur < r.Epoch {
			cur++
			starts[cur] = i
		}
	}
	for cur < d.epoch+1 {
		cur++
		starts[cur] = len(d.records)
	}
	return starts
}
