package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"tcss/internal/core"
	"tcss/internal/fault"
	"tcss/internal/geo"
	"tcss/internal/wire"
)

// ShipVersion is the snapshot-shipping wire format version, carried in the
// outer CRC32-C frame header so both ends can gate on it before trusting the
// payload layout.
const ShipVersion = 1

var errShipVersion = errors.New("serve: unsupported shipment wire version")

// ShippedSide is the dynamic part of core.SideInfo that travels with a
// shipped snapshot. The POI distances are not part of it: they derive from
// static POI geography, identical on every node that loaded the same
// dataset, and d_max over them costs O(J²) Haversines to recompute.
// DecodeShipment grafts the receiver's local geo.DistanceMatrix back in.
type ShippedSide struct {
	EntropyW   []float64 `json:"entropy_w"`
	OwnPOIs    [][]int   `json:"own_pois"`
	FriendPOIs [][]int   `json:"friend_pois"`
	// Lats/Lons, when present, are the POI coordinates (len == model.J).
	// They let a replica whose local distances predate open-world growth
	// extend them (d_max over the new pairs only) instead of rejecting the
	// shipment. Optional and
	// backward compatible: pre-growth shipments simply omit them, and the
	// wire version stays ShipVersion 1.
	Lats []float64 `json:"lats,omitempty"`
	Lons []float64 `json:"lons,omitempty"`
}

// EncodeShipment serializes a snapshot for replication: one outer CRC32-C
// frame (fault.WriteFramed, version ShipVersion) whose payload is the model
// in the v5 binary slab format (itself a checksummed frame, so the replica's
// standard loader verifies it a second time) followed by the dynamic side
// information as JSON, with an 8-byte little-endian length prefix splitting
// the two. A single flipped or torn byte anywhere fails the outer CRC on the
// receiving end with fault.ErrChecksum.
func EncodeShipment(snap *Snapshot) ([]byte, error) {
	var model bytes.Buffer
	if err := snap.Model.SaveBinary(&model, snap.Gen); err != nil {
		return nil, fmt.Errorf("serve: encoding shipped model: %w", err)
	}
	shipped := ShippedSide{
		EntropyW:   snap.Side.EntropyW,
		OwnPOIs:    snap.Side.OwnPOIs,
		FriendPOIs: snap.Side.FriendPOIs,
	}
	if len(snap.Side.Locs) >= snap.Model.J {
		shipped.Lats = make([]float64, snap.Model.J)
		shipped.Lons = make([]float64, snap.Model.J)
		for j := 0; j < snap.Model.J; j++ {
			shipped.Lats[j] = snap.Side.Locs[j].Lat
			shipped.Lons[j] = snap.Side.Locs[j].Lon
		}
	}
	side, err := json.Marshal(shipped)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding shipped side info: %w", err)
	}
	payload := make([]byte, 8, 8+model.Len()+len(side))
	binary.LittleEndian.PutUint64(payload, uint64(model.Len()))
	payload = append(payload, model.Bytes()...)
	payload = append(payload, side...)
	var out bytes.Buffer
	out.Grow(len(payload) + 256)
	if err := fault.WriteFramed(&out, ShipVersion, payload); err != nil {
		return nil, fmt.Errorf("serve: framing shipment: %w", err)
	}
	return out.Bytes(), nil
}

// DecodeShipment verifies and decodes a shipment produced by EncodeShipment,
// grafting dist (the receiver's POI coordinates and d_max) into the side
// information. When the shipped model has grown past dist (open-world
// growth at the primary) and the shipment carries POI coordinates, dist is
// extended to them (geo.DistanceMatrix.Grown: d_max over the new pairs, no
// array) — or built from them when dist is nil, at O(J²) time for d_max;
// without coordinates a dimension mismatch is an error. Corruption fails
// with an error wrapping fault.ErrChecksum; callers keep serving their last
// good snapshot in that case.
func DecodeShipment(data []byte, dist *geo.DistanceMatrix) (*core.Model, *core.SideInfo, uint64, error) {
	_, payload, err := fault.Unseal(data, errShipVersion, ShipVersion)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: shipment frame: %w", err)
	}
	if len(payload) < 8 {
		return nil, nil, 0, fmt.Errorf("serve: shipment payload truncated (%d bytes)", len(payload))
	}
	modelLen := binary.LittleEndian.Uint64(payload)
	if modelLen > uint64(len(payload)-8) {
		return nil, nil, 0, fmt.Errorf("serve: shipment declares %d model bytes, payload has %d", modelLen, len(payload)-8)
	}
	model, gen, err := core.DecodeBinary(payload[8 : 8+modelLen])
	if err != nil {
		return nil, nil, 0, err
	}
	var shipped ShippedSide
	if err := json.Unmarshal(payload[8+modelLen:], &shipped); err != nil {
		return nil, nil, 0, fmt.Errorf("serve: decoding shipped side info: %w", err)
	}
	if len(shipped.OwnPOIs) != model.I || len(shipped.FriendPOIs) != model.I || len(shipped.EntropyW) != model.J {
		return nil, nil, 0, fmt.Errorf("serve: shipped side info shape (%d users, %d POIs) does not match model %dx%d",
			len(shipped.OwnPOIs), len(shipped.EntropyW), model.I, model.J)
	}
	// A shipment is outside input. The scoring kernel walks each own-POI list
	// with a cursor and panics on an unsorted one, and Explain indexes the
	// POI coordinates with both lists and reads e_j, so refuse anything a
	// fold of the training tensor cannot produce.
	for u := range shipped.OwnPOIs {
		if err := checkShippedPOIs("own", u, shipped.OwnPOIs[u], model.J); err != nil {
			return nil, nil, 0, err
		}
		if err := checkShippedPOIs("friend", u, shipped.FriendPOIs[u], model.J); err != nil {
			return nil, nil, 0, err
		}
	}
	for j, w := range shipped.EntropyW {
		if !(w > 0 && w <= 1) {
			return nil, nil, 0, fmt.Errorf("serve: shipped entropy weight of POI %d is %v, outside (0, 1]", j, w)
		}
	}
	var pts []geo.Point
	if len(shipped.Lats) == model.J && len(shipped.Lons) == model.J {
		pts = make([]geo.Point, model.J)
		for j := range pts {
			pts[j] = geo.Point{Lat: shipped.Lats[j], Lon: shipped.Lons[j]}
			if !pts[j].Valid() {
				return nil, nil, 0, fmt.Errorf("serve: shipped coordinates of POI %d are %v, outside [-90, 90] × [-180, 180]", j, pts[j])
			}
		}
	}
	switch {
	case dist != nil && dist.N == model.J:
		// Local matrix matches the shipped model: the normal graft.
	case pts != nil && dist != nil && dist.N < model.J:
		dist = dist.Grown(pts)
	case pts != nil:
		dist = geo.NewDistanceMatrix(pts)
	default:
		n := 0
		if dist != nil {
			n = dist.N
		}
		return nil, nil, 0, fmt.Errorf("serve: shipment model has %d POIs but local distance matrix covers %d and no coordinates were shipped", model.J, n)
	}
	side := &core.SideInfo{
		Dist:       dist,
		EntropyW:   shipped.EntropyW,
		OwnPOIs:    shipped.OwnPOIs,
		FriendPOIs: shipped.FriendPOIs,
		Locs:       pts,
	}
	return model, side, gen, nil
}

// checkShippedPOIs reports a shipped POI list of user u that is not strictly
// ascending within [0, J).
func checkShippedPOIs(kind string, u int, list []int, J int) error {
	prev := -1
	for _, j := range list {
		if j <= prev || j >= J {
			return fmt.Errorf("serve: shipped %s-POI list of user %d is not strictly ascending within [0, %d) at POI %d", kind, u, J, j)
		}
		prev = j
	}
	return nil
}

// RecordReplication feeds the replica-side replication counters after one
// sync attempt: nil for a successful fetch (whether or not it carried a new
// generation), a fault.ErrChecksum-wrapping error for a corrupt shipment, any
// other error for transport or decode failures. The shipping Replicator in
// internal/cluster calls this so /metrics on a replica tells the whole story.
func (s *Server) RecordReplication(err error) {
	if err == nil {
		s.met.Replication.Syncs.Add(1)
		return
	}
	s.met.Replication.Failures.Add(1)
	if errors.Is(err, fault.ErrChecksum) {
		s.met.Replication.ChecksumRejected.Add(1)
	}
}

// serveSnapshotBin implements GET /v1/snapshot/bin: the snapshot-shipping
// export. With ?after=G the handler answers 204 No Content when the current
// generation is not past G — the cheap poll a replica issues every sync
// interval — and otherwise streams the full shipment. The X-Generation
// header always reports the generation being (or not being) shipped.
func (s *Server) serveSnapshotBin(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.load()
	w.Header().Set(wire.GenerationHeader, strconv.FormatUint(snap.Gen, 10))
	if raw := r.URL.Query().Get("after"); raw != "" {
		after, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.fail(w, failf(errBadRequest, "parameter %q: %v", "after", err))
			return
		}
		if snap.Gen <= after {
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
	body, err := EncodeShipment(snap)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.met.Replication.ShipmentsServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}
