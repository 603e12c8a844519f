package pmem

// HasPage reports whether page pg has backing storage.
func (d *Device) HasPage(pg int64) bool { return d.pages[pg] != nil }
