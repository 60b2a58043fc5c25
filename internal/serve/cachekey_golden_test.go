package serve

import (
	"math"
	"testing"
)

// TestCacheKeyForGolden pins the exact bytes of CacheKeyFor over its
// Execute, N and TimeoutMS variants. The key addresses journaled
// entries and picks the router's replicas, so it must not move.
func TestCacheKeyForGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  Request
		want string
	}{
		{"empty", Request{}, "eb27b32888070406424c4b709ac93fc70521495bc916732b8ef4857ca230b10b"},
		{"plain", Request{Source: goodSrc}, "e3597c921c43151d70fcc3ef6db4782870e6eac490a75e1fcd27f6ec9dd392b7"},
		{"execute", Request{Source: goodSrc, Execute: true}, "f3c1b752df06615cbf51911038166e66dfdae4fd640c56eabb4b7ed14fd933a9"},
		{"n", Request{Source: goodSrc, N: 16}, "669d1ac39f1b53fa0d1ce6ebffaa870b60bdc4f668328794e93c16eb90aeea73"},
		{"n-negative", Request{Source: goodSrc, N: -3}, "453ca60b07f0461838b2a7c9e8bcd51a81c2ca6dd7dcc735803170eaa4b5ea34"},
		{"n-extremes", Request{Source: goodSrc, N: math.MinInt64, TimeoutMS: math.MaxInt64}, "6402b731aa465dc8ed9d67f5383f23397109fad8a539ab5a22fc52cbcb3c6f04"},
		{"timeout", Request{Source: goodSrc, TimeoutMS: 50}, "49ab0c1bc35ae7090dcbef4a9cbeacfb85b4fc5ba203cc303a46af3e0cbc5713"},
		{"timeout-negative", Request{Source: goodSrc, TimeoutMS: -1}, "6cf01cf0363178bed4e852190763b106f30b8599e09a69f3f9927a51d7ab1679"},
		{"all", Request{Source: goodSrc, Execute: true, N: 256, TimeoutMS: 1500}, "aaf2f3394d7a7543897141d7d84679a5a8f0abf27f774401d20fd635edc53b4a"},
		{"chaos-ignored", Request{Source: goodSrc, Chaos: &ChaosSpec{MutateSeed: 3}}, "e3597c921c43151d70fcc3ef6db4782870e6eac490a75e1fcd27f6ec9dd392b7"},
	} {
		if got := CacheKeyFor(&tc.req); got != tc.want {
			t.Errorf("%s: CacheKeyFor = %s, want %s", tc.name, got, tc.want)
		}
	}
}
