package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"

	"repro/internal/spec"
	"repro/internal/trace"
)

// op is one unit of timed work. Offline ops carry the cell axes the worker
// runs; serve-gw ops drive the same cells through the gateway.
type op struct {
	// Key names the op's reference digest: "<spec>#<cell>".
	Key  string
	Kind string // "cell", "fig56" or "panic"
	Axes spec.Axes
}

// fig56Algos is the algorithm order of one fig56-points op.
var fig56Algos = []string{"cpf", "sdpf", "cdpf", "cdpf-ne"}

// specFiles lists the op-list documents of each workload, in op order.
var specFiles = map[string][]string{
	"cdpf-cells":   {"cells-clean.json", "cells-resilience.json", "cells-sensorfault.json"},
	"fig56-points": {"fig56-points.json"},
	"serve-gw":     {"cells-clean.json", "cells-resilience.json", "cells-sensorfault.json"},
}

// loadOps decodes, expands and validates a workload's spec documents and
// returns its fixed op list in canonical order.
func loadOps(dir, workload string) ([]op, error) {
	files, ok := specFiles[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	kind := "cell"
	if workload == "fig56-points" {
		kind = "fig56"
	}
	var ops []op
	for _, name := range files {
		f, err := spec.Load(filepath.Join(dir, "specs", name))
		if err != nil {
			return nil, err
		}
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		cells, err := f.Expand()
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			ops = append(ops, op{Key: f.Name + "#" + c.Name, Kind: kind, Axes: c.Axes.Normalized()})
		}
	}
	return ops, nil
}

// digestFile is the checked-in reference digest table.
const digestFile = "digests.json"

// loadDigests reads the reference digests, keyed by op key.
func loadDigests(dir string) (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(dir, digestFile))
	if err != nil {
		return nil, err
	}
	var d map[string]string
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", digestFile, err)
	}
	return d, nil
}

// digester hashes per-step outputs: the estimate (bit-exact), the holder
// count and the message/byte deltas of every iteration. Trace fields beyond
// these do not enter the digest, so new observability fields keep old
// references valid.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) put(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

// label separates the runs of a multi-algorithm op.
func (d *digester) label(s string) {
	d.put(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) records(recs []trace.Record) {
	d.put(uint64(len(recs)))
	for _, r := range recs {
		d.put(uint64(r.K))
		if r.HaveEst {
			d.put(1)
			d.put(uint64(r.EstForK))
			d.put(math.Float64bits(r.EstX))
			d.put(math.Float64bits(r.EstY))
		} else {
			d.put(0)
		}
		d.put(uint64(int64(r.Holders)))
		d.put(uint64(r.MsgsDelta))
		d.put(uint64(r.BytesDelta))
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }

// recordsDigest is the digest of a single run.
func recordsDigest(recs []trace.Record) string {
	d := newDigester()
	d.records(recs)
	return d.sum()
}
