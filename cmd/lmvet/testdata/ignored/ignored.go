// Package ignored is an lmvet CLI test fixture whose single errclose
// violation carries a well-formed inline suppression, so the run must
// exit 0.
package ignored

// File stands in for a file opened read-only.
type File struct{}

// Close can fail, but nothing read-only is lost when it does.
func (File) Close() error { return nil }

// Done drops the error of Close on purpose; the trailing directive
// records why the finding is accepted.
func Done(f File) {
	f.Close() //lmvet:ignore errclose fixture: a read-only close loses nothing
}
