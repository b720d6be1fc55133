package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/trace"
)

// referenceJSON pins every cell the workloads can generate: its simulated
// seconds and a digest of its trace.Stats, as bench.MeasureForced
// computed them uncached when the benchmark was written. Regenerate with -pin only for a deliberate model
// change; a speed-only change must leave every entry identical.
//
//go:embed reference.json
var referenceJSON []byte

// refEntry is one pinned cell.
type refEntry struct {
	Seconds float64 `json:"seconds"`
	Stats   string  `json:"stats"` // statsDigest of the cell's counters
}

// referenceTable maps cellSpec.key to the pinned result.
type referenceTable map[string]refEntry

func loadReference() (referenceTable, error) {
	var ref referenceTable
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %v", err)
	}
	return ref, nil
}

// statsDigest fingerprints every counter of st, per-link bytes included.
func statsDigest(st trace.Stats) string {
	data, err := json.Marshal(st)
	if err != nil {
		panic(err) // trace.Stats holds only integers and a string-keyed map
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}

// matches reports whether a simulated result equals c's pinned one
// exactly. st is nil where the counters are not visible (served cells).
func (ref referenceTable) matches(c cellSpec, seconds float64, st *trace.Stats) bool {
	want, ok := ref[c.key()]
	if !ok || want.Seconds != seconds {
		return false
	}
	return st == nil || want.Stats == statsDigest(*st)
}

// pinReference simulates every cell any workload can generate and writes
// the reference table to path.
func pinReference(ctx context.Context, path string) error {
	cl, err := compileCluster()
	if err != nil {
		return err
	}
	rv := newResolver(cl)
	var cells []cellSpec
	for _, root := range paperRoots {
		for _, c := range paperCells(0) {
			if c.Op != "alltoall" {
				c.Root = root
			}
			cells = append(cells, c)
		}
	}
	for _, root := range clusterRoots {
		c := clusterCell(0)
		c.Root = root
		cells = append(cells, c)
	}
	for mi := range servedMachines {
		cells = append(cells, servedUniverse(mi)...)
	}
	ref := referenceTable{}
	for _, c := range cells {
		if _, done := ref[c.key()]; done {
			continue
		}
		res, err := measureForced(ctx, rv, c)
		if err != nil {
			return err
		}
		ref[c.key()] = refEntry{Seconds: res.Seconds, Stats: statsDigest(res.Stats)}
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
