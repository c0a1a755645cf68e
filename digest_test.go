package ecavs

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
)

// TestStreamMetricsDigest pins every field of the sessions Stream
// returns, Segments included, under each of its options: the five
// Table V traces × four policies × four option sets, hashed with
// FNV-1a, floats by their bits. Whatever builds the facade's session,
// the metrics must not move by one bit.
func TestStreamMetricsDigest(t *testing.T) {
	traces, err := GenerateTableVTraces()
	if err != nil {
		t.Fatal(err)
	}
	policies := []func() (Algorithm, error){
		func() (Algorithm, error) { return NewYoutube(), nil },
		func() (Algorithm, error) { return NewFESTIVE(), nil },
		NewBBA,
		func() (Algorithm, error) { return NewOnline(0.5) },
	}
	optionSets := []func() ([]StreamOption, error){
		func() ([]StreamOption, error) { return nil, nil },
		func() ([]StreamOption, error) { return []StreamOption{WithBufferThreshold(12)}, nil },
		func() ([]StreamOption, error) {
			return []StreamOption{WithPacingHysteresis(10), WithLTETailEnergy()}, nil
		},
		func() ([]StreamOption, error) {
			rec, err := NewDecisionRecorder(64, 1)
			return []StreamOption{WithDecisionRecorder(rec)}, err
		},
	}
	h := fnv.New64a()
	sessions := 0
	for _, tr := range traces {
		for _, newAlg := range policies {
			for _, newOpts := range optionSets {
				alg, err := newAlg()
				if err != nil {
					t.Fatal(err)
				}
				opts, err := newOpts()
				if err != nil {
					t.Fatal(err)
				}
				m, err := Stream(tr, alg, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if len(m.Segments) == 0 {
					t.Fatalf("trace %d %s: no segment log", tr.ID, m.Algorithm)
				}
				hashValue(t, h, reflect.ValueOf(*m), "Metrics")
				sessions++
			}
		}
	}
	const want = uint64(0xaa3a069fc0caf100)
	if got := h.Sum64(); got != want {
		t.Errorf("digest of %d sessions = %#016x, want %#016x", sessions, got, want)
	}
}

// hashValue writes v into h field by field: floats by their bits, ints,
// bools, strings with their length, slices with their length and then
// each element, structs field by field.
func hashValue(t *testing.T, h hash.Hash64, v reflect.Value, path string) {
	t.Helper()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int:
		put(uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(t, h, v.Index(i), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(t, h, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	default:
		t.Fatalf("%s: kind %s is not hashed; extend the digest", path, v.Kind())
	}
}
