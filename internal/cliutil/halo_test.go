package cliutil

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestCheckExplicit(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "defaults"},
		{name: "fresh only", args: []string{"-fresh"}},
		{name: "depth one is fresh", args: []string{"-halo-depth", "1"}},
		{name: "wide depth", args: []string{"-halo-depth", "3"}},
		{name: "explicit zero depth", args: []string{"-halo-depth", "0"}, wantErr: "-halo-depth must be >= 1"},
		{name: "negative depth", args: []string{"-halo-depth", "-2"}, wantErr: "-halo-depth must be >= 1"},
		{name: "explicit zero cadence", args: []string{"-reduce-every", "0"}, wantErr: "-reduce-every must be a positive cadence"},
		{name: "cadence", args: []string{"-reduce-every", "5"}},
		{name: "explicit zero group", args: []string{"-reduce-group", "0"}, wantErr: "-reduce-group must be >= 1"},
		{name: "flat group", args: []string{"-reduce-group", "1"}},
		// The pair contradiction is Config.Canonical's, not a flag check.
		{name: "fresh with wide depth passes the flag check", args: []string{"-fresh", "-halo-depth", "2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			fs.Bool("fresh", false, "")
			fs.Int("halo-depth", 0, "")
			fs.Int("reduce-every", 0, "")
			fs.Int("reduce-group", 0, "")
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := CheckExplicit(fs)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}
