package consume

import "fix/internal/storage/blob"

// Forget discards Delete's error on a Backend declared in a
// subpackage of internal/storage: flagged like the parent's.
func Forget(b blob.Backend, name string) {
	b.Delete(name) // want `storage backend call's error is discarded`
}

// Listing returns the core Backend's raw error: flagged.
func Listing(b blob.Backend) ([]string, error) { // want `Listing reads through a storage\.Backend and returns error without classifying it`
	return b.List("")
}

// Retryable tells the caller whether a failed listing is worth
// retrying, through the core's IsTransient: passes.
func Retryable(b blob.Backend) (retry bool, err error) {
	if _, err = b.List(""); err != nil && blob.IsTransient(err) {
		return true, err
	}
	return false, err
}
