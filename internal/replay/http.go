package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"tcss/internal/lbsn"
	"tcss/internal/wire"
)

// HTTPTarget replays against a live serve node (or a cluster gateway) over
// its public HTTP API: GET /metrics for dimensions, GET /v1/recommend for
// scoring, POST /v1/observe for folds. The node must run with growth enabled
// or arrival-bearing weeks come back 409.
type HTTPTarget struct {
	// BaseURL is the node's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client; http.DefaultClient when nil.
	Client *http.Client
}

func (t *HTTPTarget) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// getJSON fetches url and decodes a 200 response into out.
func (t *HTTPTarget) getJSON(url string, out any) error {
	resp, err := t.client().Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (t *HTTPTarget) Dims() (int, int, error) {
	var doc wire.NodeMetrics
	if err := t.getJSON(t.BaseURL+"/metrics", &doc); err != nil {
		return 0, 0, err
	}
	return doc.Model.Users, doc.Model.POIs, nil
}

func (t *HTTPTarget) Recommend(user, tt, n int) ([]int, error) {
	var doc wire.ReadResponse
	u := fmt.Sprintf("%s/v1/recommend?%s", t.BaseURL, url.Values{
		"user": {fmt.Sprint(user)},
		"t":    {fmt.Sprint(tt)},
		"n":    {fmt.Sprint(n)},
	}.Encode())
	if err := t.getJSON(u, &doc); err != nil {
		return nil, err
	}
	pois := make([]int, len(doc.Results))
	for i, r := range doc.Results {
		pois[i] = r.POI
	}
	return pois, nil
}

func (t *HTTPTarget) ObserveWeek(wb lbsn.WeekBatch) (uint64, error) {
	req := wire.ObserveRequest{CheckIns: make([]wire.CheckIn, len(wb.CheckIns))}
	for i, c := range wb.CheckIns {
		req.CheckIns[i] = wire.CheckIn{User: c.User, POI: c.POI, Month: c.Month, Week: c.Week, Hour: c.Hour}
	}
	for _, u := range wb.NewUsers {
		req.NewUsers = append(req.NewUsers, wire.NewUser{ID: u.ID, Friends: u.Friends})
	}
	for _, p := range wb.NewPOIs {
		req.NewPOIs = append(req.NewPOIs, wire.POI{
			ID: p.ID, Lat: p.Loc.Lat, Lon: p.Loc.Lon, Category: int(p.Category),
		})
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return 0, err
	}
	resp, err := t.client().Post(t.BaseURL+"/v1/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("POST /v1/observe week %d: %s: %s", wb.Week, resp.Status, bytes.TrimSpace(msg))
	}
	var out wire.ObserveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Generation, nil
}
