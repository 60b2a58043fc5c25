package engine

import (
	"testing"

	"givetake/internal/comm"
)

// TestCacheKeyGolden pins the exact bytes of CacheKey. Keys are
// persisted in the journal and shared with the cluster router, so a
// rewrite of the encoding must reproduce every key here: a moved key
// turns every journaled entry into a dead record and scatters routing.
func TestCacheKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		source string
		opt    comm.Opts
		extra  []string
		want   string
	}{
		{"empty", "", comm.Opts{}, nil, "3ce11883f4707f4990c44606f95361640d27771b9efe15c5d8381a4409b49271"},
		{"plain", "x = 1\n", comm.Opts{}, nil, "063841b0fc511e1d255975a2a63cac121579df2a229c861eae84a4d23cccd80b"},
		{"suppress-hoist", "x = 1\n", comm.Opts{SuppressHoist: true}, nil, "2e547005d9bb1bcbf93401e087864591530acbf3e4b066d90935eb853f7a3d21"},
		{"one-extra", "x = 1\n", comm.Opts{}, []string{"execute=true"}, "3585cb18a114cd34434cb67ed97ba9f699d039354fe25c56d8bd380e2b67bfce"},
		{"empty-extra", "x = 1\n", comm.Opts{}, []string{""}, "41dacc147f06e233e6957f9d81c3b9bf94a133751b418a0bb45293d9722a5e1b"},
		{"extras-hoist", "x = 1\n", comm.Opts{SuppressHoist: true}, []string{"execute=false", "n=8", "timeout_ms=0"}, "70ef3a1b87724353a96c05f784e6f679837889c42a637d23b420bfb9d9d4cd22"},
		{"nul-and-utf8", "a\x00b é ∑\n", comm.Opts{}, []string{"k\x00v", "ü"}, "17293f960115137dcbbbb91b0eef3de306b6091c9037c87412d7afd92d1b15b3"},
	} {
		if got := CacheKey(tc.source, tc.opt, tc.extra...); got != tc.want {
			t.Errorf("%s: CacheKey = %s, want %s", tc.name, got, tc.want)
		}
	}
}
