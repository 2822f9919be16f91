// Package lib holds one case of each census rule.
package lib

import "encoding/json"

// plantedDead is an unexported func nothing calls.
func plantedDead() int { return 1 }

// Level is a live type; only fmt calls its String method.
type Level int

func (l Level) String() string { return "level" }

// Options is built from a keyed composite literal only.
type Options struct {
	Size  int // set in the literal: live
	Spare int // never named: unreached
}

// NewOptions returns the default options.
func NewOptions() Options { return Options{Size: 3} }

// Status is filled by encoding/json; nothing reads Seen.
type Status struct {
	Name string `json:"name"`
	Seen int    `json:"seen"`
}

// Decode returns the name a status document carries.
func Decode(b []byte) (string, error) {
	var s Status
	err := json.Unmarshal(b, &s)
	return s.Name, err
}

// Max is a generic func reached only through an instance.
func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Box is a generic type reached only through an instance.
type Box[T any] struct {
	V T
}

// Get returns the boxed value.
func (b Box[T]) Get() T { return b.V }
