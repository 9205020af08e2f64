package main

import "testing"

func TestParseCPUTimes(t *testing.T) {
	stat := []byte("cpu  100 5 20 700 3 1 4 30 0 0\ncpu0 50 2 10 350 1 0 2 15 0 0\n")
	got := parseCPUTimes(stat)
	want := cpuTimes{busy: 100 + 5 + 20 + 1 + 4, steal: 30, ok: true}
	if got != want {
		t.Errorf("parseCPUTimes = %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3\n", "cpu 1 2 x 4 5 6 7 8\n"} {
		if parseCPUTimes([]byte(bad)).ok {
			t.Errorf("parseCPUTimes(%q) reads as valid", bad)
		}
	}
}

func TestStolen(t *testing.T) {
	a := cpuTimes{busy: 1000, steal: 100, ok: true}
	for _, c := range []struct {
		name string
		b    cpuTimes
		want float64
	}{
		{"none stolen", cpuTimes{busy: 1200, steal: 100, ok: true}, 0},
		{"a quarter stolen", cpuTimes{busy: 1150, steal: 150, ok: true}, 0.25},
		{"all stolen", cpuTimes{busy: 1000, steal: 160, ok: true}, 1},
		{"no time passed", a, 0},
		{"unreadable", cpuTimes{}, 0},
		{"counter went back", cpuTimes{busy: 1100, steal: 50, ok: true}, 0},
	} {
		if got := stolen(a, c.b); got != c.want {
			t.Errorf("%s: stolen = %v, want %v", c.name, got, c.want)
		}
	}
}
