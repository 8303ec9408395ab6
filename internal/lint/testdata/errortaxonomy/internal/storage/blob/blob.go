// Package blob stands in for the storage layer's HTTP-free core, which
// lives in a subpackage of internal/storage: the analyzer must match a
// Backend and the classifiers declared anywhere under that path, not
// only in the package whose path ends in it.
package blob

import (
	"errors"
	"io"
)

// Backend mirrors the production interface shape.
type Backend interface {
	Put(name string, write func(w io.Writer) error) error
	Get(name string) (io.ReadCloser, error)
	List(prefix string) ([]string, error)
	Delete(name string) error
}

// TransientError is the stand-in retryable failure.
type TransientError struct{ Err error }

func (e *TransientError) Error() string { return e.Err.Error() }

// IsTransient reports whether err is retryable.
func IsTransient(err error) bool {
	var e *TransientError
	return errors.As(err, &e)
}
