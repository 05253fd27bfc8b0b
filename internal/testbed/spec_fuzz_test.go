package testbed

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseSpec drives the control plane's only parser of untrusted
// input. For any byte string ParseSpec must not panic, and for every
// document it accepts the wire form must be lossless both ways:
// json.Marshal then ParseSpec reproduces the identical Spec, and
// Scenario().Spec() exports a spec that rebuilds the identical
// Scenario. Run it with `make fuzz-smoke`.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		// The golden wire document (TestSpecGoldenJSON).
		`{"seed":42,"scheduler":"heap","workload":"cbr1m","duration":"1m30s","window":"200ms","fault_profile":"flaky","self_heal":true,"heal_policy":{"initial_backoff":"1s","max_attempts":3},"analysis":{"mode":"stream","exact":true},"cells":4,"terminals":2,"shards":3,"shard_policy":"global","flow_start":"15s","idle_terminals":100,"population":1000,"population_spec":{"rate_bps":64000,"tick":"100ms"},"flow_gauge_limit":64}`,
		// The benchmark's spec shapes: the paper cells, the fleet and
		// the service mix.
		`{"seed":1,"workload":"voip","duration":"120s"}`,
		`{"seed":1,"workload":"cbr1m","duration":"120s"}`,
		`{"seed":1,"cells":4,"terminals":2,"idle_terminals":24000,"population":1000,"shard_policy":"dynamic","duration":"30s","analysis":{"mode":"stream-only"}}`,
		`{"seed":1,"workload":"voip","duration":"120s","analysis":{"mode":"stream-only"}}`,
		`{"seed":1,"workload":"voip","duration":"120s","analysis":{"mode":"stream-only"},"fault_profile":"drops","self_heal":true}`,
		`{"seed":1,"cells":2,"terminals":2,"shard_policy":"dynamic","analysis":{"mode":"stream-only"}}`,
		// Documents the parser must reject.
		`{"cells":2,"terminals":1,"shard_policy":"optimistic"}`,
		`{"cells":1,"terminals":1,"window":"1ns","duration":"10s"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := ParseSpec(wire)
		if err != nil {
			t.Fatalf("marshaled spec %s does not re-parse: %v", wire, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("marshal/parse not lossless:\n got %+v\nwant %+v", back, spec)
		}
		sc, err := spec.Scenario()
		if err != nil {
			t.Fatalf("accepted spec %s has no scenario: %v", wire, err)
		}
		exported, err := sc.Spec()
		if err != nil {
			t.Fatalf("scenario of %s does not export: %v", wire, err)
		}
		sc2, err := exported.Scenario()
		if err != nil {
			t.Fatalf("exported spec %+v has no scenario: %v", exported, err)
		}
		if !reflect.DeepEqual(sc2, sc) {
			t.Fatalf("Scenario().Spec() round trip changed the scenario of %s:\n got %+v\nwant %+v", wire, sc2, sc)
		}
	})
}
