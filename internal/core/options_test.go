package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"blockchaindb/internal/query"
)

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Algorithm != AlgoAuto || o.Workers != 1 {
		t.Fatalf("DefaultOptions() = %+v", o)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("DefaultOptions().Validate() = %v", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		ok   bool
	}{
		{"zero", Options{}, true},
		{"default", DefaultOptions(), true},
		{"opt-no-cover", Options{Algorithm: AlgoOpt, DisableCoverFilter: true}, true},
		{"naive-no-filters", Options{Algorithm: AlgoNaive, DisablePrecheck: true}, true},
		{"future-deadline", Options{Deadline: time.Now().Add(time.Hour)}, true},
		{"negative-workers", Options{Workers: -1}, false},
		{"past-deadline", Options{Deadline: time.Now().Add(-time.Second)}, false},
		{"unknown-algorithm", Options{Algorithm: Algorithm(99)}, false},
		{"precheck-off-fdonly", Options{Algorithm: AlgoFDOnly, DisablePrecheck: true}, false},
		{"cover-off-naive", Options{Algorithm: AlgoNaive, DisableCoverFilter: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.o.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate(%+v) = %v, want nil", tc.o, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate(%+v) = nil, want error", tc.o)
			}
		})
	}
}

// TestCheckRejectsInvalidOptions: the front door runs structural
// validation before doing any work.
func TestCheckRejectsInvalidOptions(t *testing.T) {
	d := victimDB(t)
	q := query.MustParse(victimQuery)
	if _, err := Check(context.Background(), d, q, Options{Workers: -1}); err == nil {
		t.Fatal("Check accepted Workers: -1")
	}
	if _, err := Check(context.Background(), d, q, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("Check accepted an unknown algorithm")
	}
	// A deadline already past is NOT a structural error: Check treats it
	// as an expired budget and reports undecided (a partial Result plus
	// an ErrUndecided-wrapping error) rather than rejecting the Options.
	res, err := Check(context.Background(), d, q, Options{Deadline: time.Now().Add(-time.Second)})
	if res == nil || !errors.Is(err, ErrUndecided) {
		t.Fatalf("past-deadline Check: res=%v err=%v, want partial Result with ErrUndecided", res, err)
	}
}
