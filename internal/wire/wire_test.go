package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseDeadlineBudget(t *testing.T) {
	const maxMs = math.MaxInt64 / int64(time.Millisecond)
	cases := []struct {
		raw  string
		want time.Duration
		ok   bool
	}{
		{"250", 250 * time.Millisecond, true},
		{"1", time.Millisecond, true},
		{strconv.FormatInt(maxMs, 10), time.Duration(maxMs) * time.Millisecond, true},
		{"", 0, false},
		{"0", 0, false},
		{"-5", 0, false},
		{"soon", 0, false},
		{"1.5", 0, false},
		// Numeric, positive, and too large for a time.Duration: these used to
		// wrap — 9.3e12 ms to a negative duration, 2^63-1 ms to -1 ms.
		{strconv.FormatInt(maxMs+1, 10), 0, false},
		{"9300000000000", 0, false},
		{"9223372036854775807", 0, false},
		{"99999999999999999999", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseDeadlineBudget(c.raw)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseDeadlineBudget(%q) = %v, %v; want %v, %v", c.raw, got, ok, c.want, c.ok)
		}
	}
	if got := FormatDeadlineBudget(1500 * time.Microsecond); got != "1" {
		t.Errorf("FormatDeadlineBudget(1.5ms) = %q, want whole milliseconds", got)
	}
}

// FuzzDeadlineBudget: whatever arrives in the header, an accepted budget is
// positive, never longer than the header said, and survives format∘parse.
func FuzzDeadlineBudget(f *testing.F) {
	for _, seed := range []string{"", "0", "1", "80", "-3", "9300000000000", "9223372036854775807", "1e3", " 5", "+7"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		budget, ok := ParseDeadlineBudget(raw)
		if !ok {
			if budget != 0 {
				t.Fatalf("rejected %q but returned %v", raw, budget)
			}
			return
		}
		if budget <= 0 {
			t.Fatalf("accepted %q as non-positive %v", raw, budget)
		}
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || budget.Milliseconds() != ms {
			t.Fatalf("accepted %q as %v (%d ms), header says %d ms (%v)", raw, budget, budget.Milliseconds(), ms, err)
		}
		if again, ok := ParseDeadlineBudget(FormatDeadlineBudget(budget)); !ok || again != budget {
			t.Fatalf("%v does not round-trip: %q parses to %v, %v", budget, FormatDeadlineBudget(budget), again, ok)
		}
	})
}

func TestDecodeObserve(t *testing.T) {
	for body, wantErr := range map[string]string{
		`{`:                             "decoding body",
		`{"checkins":"x"}`:              "decoding body",
		`{}`:                            "no checkins",
		`{"checkins":[],"new_pois":[]}`: "no checkins",
	} {
		if _, err := DecodeObserve(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("DecodeObserve(%s) = %v, want an error containing %q", body, err, wantErr)
		}
	}
	req, err := DecodeObserve(strings.NewReader(`{"new_users":[{"id":9,"friends":[1]}]}`))
	if err != nil || len(req.NewUsers) != 1 || req.NewUsers[0].ID != 9 {
		t.Fatalf("arrival-only batch: %+v, %v", req, err)
	}
}

// FuzzObserveDecode: decoding an arbitrary body never panics; an accepted
// batch re-marshals to bytes that decode to the same batch; and the gateway's
// ownership split delivers every check-in and every new user to exactly one
// shard — its owner's — and every new POI to every shard.
func FuzzObserveDecode(f *testing.F) {
	for _, seed := range []string{
		`{"checkins":[{"user":1,"poi":2,"month":3,"week":13,"hour":9}]}`,
		`{"checkins":[{"user":-1,"poi":99999}],"new_users":[{"id":40,"friends":[1,2]},{"id":41}]}`,
		`{"new_pois":[{"id":36,"lat":38.83,"lon":-77.31,"category":2}]}`,
		`{"checkins":[],"new_users":[],"new_pois":[]}`,
		`{"checkins":null}`, `[]`, `{`, ``, `{"checkins":[{"user":1e99}]}`,
	} {
		f.Add([]byte(seed))
	}
	shards := []string{"s0", "s1", "s2"}
	owner := func(user int) string { return shards[((user%3)+3)%3] }
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeObserve(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(req.CheckIns)+len(req.NewUsers)+len(req.NewPOIs) == 0 {
			t.Fatal("accepted an empty batch")
		}
		first, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		again, err := DecodeObserve(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-decode of %s: %v", first, err)
		}
		if second, _ := json.Marshal(again); !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the batch:\n%s\n%s", first, second)
		}

		split := req.Split(owner, shards)
		var checkIns, newUsers int
		for shard, sub := range split {
			for _, c := range sub.CheckIns {
				if owner(c.User) != shard {
					t.Fatalf("check-in of user %d delivered to %s", c.User, shard)
				}
			}
			for _, u := range sub.NewUsers {
				if owner(u.ID) != shard {
					t.Fatalf("new user %d delivered to %s", u.ID, shard)
				}
			}
			checkIns += len(sub.CheckIns)
			newUsers += len(sub.NewUsers)
			if len(sub.CheckIns)+len(sub.NewUsers)+len(sub.NewPOIs) == 0 {
				t.Fatalf("shard %s was sent an empty batch", shard)
			}
		}
		if checkIns != len(req.CheckIns) || newUsers != len(req.NewUsers) {
			t.Fatalf("split delivered %d check-ins and %d new users, batch has %d and %d",
				checkIns, newUsers, len(req.CheckIns), len(req.NewUsers))
		}
		if len(req.NewPOIs) > 0 {
			for _, shard := range shards {
				if sub := split[shard]; sub == nil || len(sub.NewPOIs) != len(req.NewPOIs) {
					t.Fatalf("shard %s did not receive all %d new POIs", shard, len(req.NewPOIs))
				}
			}
		}
	})
}
