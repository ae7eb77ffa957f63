package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"regexp"
	"testing"
)

// elapsedField is the one train-response field that reads a clock.
var elapsedField = regexp.MustCompile(`"elapsed_us":[0-9]+`)

// TestRegistryTrainersShareEvaluatorBase pins that a registered dataset
// keeps one base-score slice: the trainer prototype and its clones read
// the evaluator's, and train responses are byte for byte what they were
// when the prototype scored the dataset itself. The digests were taken
// from responses of that earlier registry, with elapsed_us blanked.
func TestRegistryTrainersShareEvaluatorBase(t *testing.T) {
	s, ts := newTestServer(t)
	for _, name := range []string{"school", "compas"} {
		e, ok := s.reg.Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		base := e.eval.BaseScores()
		if &e.proto.BaseScores()[0] != &base[0] {
			t.Errorf("%s: trainer prototype holds its own base scores", name)
		}
		if &e.proto.Clone().BaseScores()[0] != &base[0] {
			t.Errorf("%s: cloned trainer holds its own base scores", name)
		}
	}

	for _, c := range []struct {
		body, digest string
	}{
		{`{"dataset":"school","k":0.05,"seed":3}`, schoolTrainDigest},
		{`{"dataset":"school","k":0.1,"seed":4,"objective":"di"}`, schoolDITrainDigest},
		{`{"dataset":"compas","k":0.2,"seed":5,"objective":"fpr"}`, compasTrainDigest},
	} {
		resp, err := http.Post(ts.URL+"/v1/train", "application/json", bytes.NewBufferString(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", c.body, resp.StatusCode, raw)
		}
		sum := sha256.Sum256(elapsedField.ReplaceAll(raw, []byte(`"elapsed_us":0`)))
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%s: response digest %s, want %s; body %s", c.body, got, c.digest, raw)
		}
	}
}

const (
	schoolTrainDigest   = "9e1cc2bc50bbb1fe0e23e397c46e811c78d4db7021eb25e58714e3c7f082c91c"
	schoolDITrainDigest = "27cd5287509beee8327341f1e59fcb26bb8fae5f9d166765e5d3591b928c14c3"
	compasTrainDigest   = "ebcd3c2a3d90fad517d13ef8c6172544ee01e164003a00c8a8c862c981906661"
)
