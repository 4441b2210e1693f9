// The dataset mutation endpoint and the incremental result-cache
// migration it drives. POST /v1/datasets/{name}:mutate applies one atomic
// mutation batch (single JSON body or NDJSON stream, one mutation per
// line), advances the dataset generation, and then — instead of merely
// orphaning every cached result of the old generation — classifies each
// cached kSPR result against the batch (kspr.MutationImpact) and carries
// the provably unaffected ones to the new generation's cache keys.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"

	kspr "repro"
	"repro/internal/obs"
)

// mutateOp is one wire-form mutation.
type mutateOp struct {
	// Op is insert, update, or delete.
	Op string `json:"op"`
	// ID is the stable option id (required for update/delete, forbidden
	// for insert — the store assigns insert ids).
	ID *int64 `json:"id,omitempty"`
	// Values is the attribute vector (insert/update).
	Values []float64 `json:"values,omitempty"`
	// Label optionally (re)labels the option (insert/update).
	Label string `json:"label,omitempty"`
}

// mutateRequest is the JSON envelope of a mutation batch.
type mutateRequest struct {
	Mutations []mutateOp `json:"mutations"`
}

// mutateResponse acknowledges an applied batch.
type mutateResponse struct {
	Dataset    string `json:"dataset"`
	Generation uint64 `json:"generation"`
	// StoreGeneration is the generation WAL recovery restores; Durable
	// whether the dataset is WAL-backed at all.
	StoreGeneration uint64 `json:"store_generation"`
	Durable         bool   `json:"durable,omitempty"`
	Records         int    `json:"records"`
	Applied         int    `json:"applied"`
	// IDs holds the stable option id each mutation addressed, aligned with
	// the batch (freshly assigned for inserts).
	IDs []int64 `json:"ids"`
	// CacheMigrated / CacheDropped report the incremental cache pass:
	// cached results proven unaffected and carried over versus orphaned.
	CacheMigrated int `json:"cache_migrated"`
	CacheDropped  int `json:"cache_dropped"`
}

// toMutation validates and converts one wire mutation.
func (m mutateOp) toMutation(i int) (kspr.Mutation, error) {
	switch strings.ToLower(m.Op) {
	case "insert":
		if m.ID != nil {
			return kspr.Mutation{}, fmt.Errorf("mutation %d: insert must not set an id (the store assigns them)", i)
		}
		return kspr.Insert(m.Values...), nil
	case "update":
		if m.ID == nil {
			return kspr.Mutation{}, fmt.Errorf("mutation %d: update needs an id", i)
		}
		return kspr.Update(*m.ID, m.Values...), nil
	case "delete":
		if m.ID == nil {
			return kspr.Mutation{}, fmt.Errorf("mutation %d: delete needs an id", i)
		}
		if len(m.Values) > 0 {
			return kspr.Mutation{}, fmt.Errorf("mutation %d: delete must not carry values", i)
		}
		return kspr.Delete(*m.ID), nil
	default:
		return kspr.Mutation{}, fmt.Errorf("mutation %d: unknown op %q (want insert, update, delete)", i, m.Op)
	}
}

// decodeMutateRequest reads a mutation batch in any of the three wire
// forms: a JSON envelope with a mutations array, a single bare JSON
// mutation object, or (Content-Type application/x-ndjson) one mutation
// per line. The batch always applies atomically regardless of form.
func (s *Server) decodeMutateRequest(w http.ResponseWriter, r *http.Request) ([]mutateOp, bool) {
	if strings.Contains(r.Header.Get("Content-Type"), "ndjson") {
		sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, 16<<20))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		var ops []mutateOp
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			var op mutateOp
			if err := dec.Decode(&op); err != nil {
				writeError(w, http.StatusBadRequest, "invalid mutation line %d: %v", len(ops), err)
				return nil, false
			}
			ops = append(ops, op)
		}
		if err := sc.Err(); err != nil {
			writeError(w, http.StatusBadRequest, "reading ndjson body: %v", err)
			return nil, false
		}
		return ops, true
	}
	raw, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return nil, false
	}
	// Envelope form first, then the single bare-mutation form.
	var req mutateRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err == nil && len(req.Mutations) > 0 {
		return req.Mutations, true
	}
	var op mutateOp
	dec = json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&op); err == nil && op.Op != "" {
		return []mutateOp{op}, true
	}
	writeError(w, http.StatusBadRequest,
		`invalid mutation body: want {"mutations":[...]}, a single {"op":...}, or an ndjson stream`)
	return nil, false
}

// readBody drains the (size-capped) request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, 16<<20))
	return buf.Bytes(), err
}

// handleDatasetMutate serves POST /v1/datasets/{name}:mutate.
func (s *Server) handleDatasetMutate(w http.ResponseWriter, r *http.Request) {
	action := r.PathValue("action")
	name, ok := strings.CutSuffix(action, ":mutate")
	if !ok || name == "" {
		writeError(w, http.StatusNotFound, "unknown dataset action %q (want <name>:mutate)", action)
		return
	}
	if _, ok := s.registry.Get(name); !ok {
		writeError(w, http.StatusNotFound, "dataset %q not found", name)
		return
	}
	ops, ok := s.decodeMutateRequest(w, r)
	if !ok {
		return
	}
	if len(ops) == 0 {
		writeError(w, http.StatusBadRequest, "mutation batch is empty")
		return
	}
	muts := make([]kspr.Mutation, len(ops))
	labels := make(map[int]string)
	for i, op := range ops {
		m, err := op.toMutation(i)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		muts[i] = m
		if op.Label != "" {
			labels[i] = op.Label
		}
	}
	old, cur, res, err := s.registry.Mutate(name, muts, labels)
	if err != nil {
		// Not-found races (unloaded between the pre-check and Mutate) are
		// 404; storage-side failures (WAL append/fsync — not applied, safe
		// to retry) are 500; everything else is input validation.
		switch {
		case errors.Is(err, ErrDatasetNotFound):
			writeError(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, kspr.ErrStoreIO):
			writeError(w, http.StatusInternalServerError, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	reqInfoFrom(r.Context()).noteDataset(cur)
	s.journal.Append(obs.JournalEvent{
		Type:            obs.EventMutationBatch,
		Dataset:         cur.Name,
		Generation:      cur.Generation,
		StoreGeneration: cur.StoreGeneration,
		Detail:          map[string]any{"mutations": len(muts), "records": cur.DB.Len()},
	})
	migrated, dropped := s.migrateCache(old, cur, res.Deltas)
	s.journal.Append(obs.JournalEvent{
		Type:       obs.EventCacheMigration,
		Dataset:    cur.Name,
		Generation: cur.Generation,
		Detail:     map[string]any{"migrated": migrated, "dropped": dropped, "from_generation": old.Generation},
	})
	s.metrics.AddMutationBatch(len(muts), migrated, dropped)
	writeJSON(w, http.StatusOK, mutateResponse{
		Dataset:         cur.Name,
		Generation:      cur.Generation,
		StoreGeneration: cur.StoreGeneration,
		Durable:         cur.Durable,
		Records:         cur.DB.Len(),
		Applied:         len(muts),
		IDs:             res.IDs,
		CacheMigrated:   migrated,
		CacheDropped:    dropped,
	})
}

// migrateCache is the serving half of incremental kSPR maintenance: after
// a mutation batch moved the dataset from old to cur, every cached exact
// kSPR result of the old generation is classified against the batch's
// dominance facts, and the provably unaffected ones are re-inserted under
// the new generation's cache keys (with the focal's dense index remapped
// through its stable id). Affected or unmappable entries are dropped —
// i.e. simply left to age out under their old-generation keys, which no
// request will ever build again. Returns (migrated, dropped).
func (s *Server) migrateCache(old, cur *Snapshot, deltas []kspr.Delta) (int, int) {
	var hits []*cachedQuery
	s.cache.EachPrefix(ksprKeyPrefix(old), func(_ string, val any) {
		if cq, ok := val.(*cachedQuery); ok {
			hits = append(hits, cq)
		}
	})
	if len(hits) == 0 {
		return 0, 0
	}
	maxK := 0
	for _, cq := range hits {
		maxK = max(maxK, cq.k)
	}
	mi := kspr.NewMutationImpact(old.DB, cur.DB, deltas, maxK)
	migrated, dropped := 0, 0
	for _, cq := range hits {
		newDense := -1
		if cq.vec == nil {
			stable, ok := old.DB.StableID(cq.focal)
			if !ok {
				dropped++
				continue
			}
			nd, ok := cur.DB.DenseIndex(stable)
			if !ok {
				dropped++ // the focal option was deleted
				continue
			}
			// Bit-exact, like the engine's keep rule: even a sub-epsilon
			// reprice changes the bytes a cold recompute would build.
			if !slices.Equal(old.DB.Record(cq.focal), cur.DB.Record(nd)) {
				dropped++ // the focal option was repriced
				continue
			}
			newDense = nd
		}
		if !mi.Unaffected(cq.res.Focal, cq.k, cq.spec.algo) {
			dropped++
			continue
		}
		resp := *cq.resp
		resp.Generation = cur.Generation
		resp.Focal = newDense
		s.cache.Put(cq.spec.key(cur, cq.k, newDense, cq.vec), &cachedQuery{
			spec: cq.spec, k: cq.k, focal: newDense, vec: cq.vec, resp: &resp, res: cq.res,
		})
		migrated++
	}
	return migrated, dropped
}
