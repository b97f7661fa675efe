package sweep

import (
	"slices"
	"testing"
)

// TestResolveFigures pins the -fig vocabulary that cmd/figures and
// cmd/nocsimd share: paper tokens, manifest names and "all", duplicates
// and blanks ignored, the selection in Figures() order, and the error
// that names an unknown token.
func TestResolveFigures(t *testing.T) {
	ablation := []string{"period", "gains", "levels", "routing", "breakdown"}
	for _, tc := range []struct {
		list string
		figs []string
		fig5 bool
	}{
		{"2", []string{"baseline"}, false},
		{"4", []string{"baseline"}, false},
		{"5", nil, true},
		{"6", []string{"baseline"}, false},
		{"7", []string{"fig7"}, false},
		{"8", []string{"fig8"}, false},
		{"10", []string{"fig10"}, false},
		{"pi", []string{"pi"}, false},
		{"summary", []string{"baseline"}, false},
		{"ablation", ablation, false},
		{"baseline", []string{"baseline"}, false},
		{"fig7", []string{"fig7"}, false},
		{"fig8", []string{"fig8"}, false},
		{"fig10", []string{"fig10"}, false},
		{"period", []string{"period"}, false},
		{"gains", []string{"gains"}, false},
		{"levels", []string{"levels"}, false},
		{"routing", []string{"routing"}, false},
		{"breakdown", []string{"breakdown"}, false},
		{"burst", []string{"burst"}, false},
		{"all", Figures(), true},
		{"5,all", Figures(), true},
		{"5,7", []string{"fig7"}, true},
		{"2,4,6,summary,baseline", []string{"baseline"}, false},
		{" 7 , fig7,,7 ", []string{"fig7"}, false},
		{"", nil, false},
		{" , ", nil, false},
		{"burst,10,2,ablation,pi", append(append([]string{"baseline", "fig10", "pi"}, ablation...), "burst"), false},
		{"levels,gains,fig8,fig7", []string{"fig7", "fig8", "gains", "levels"}, false},
	} {
		figs, fig5, err := ResolveFigures(tc.list)
		if err != nil {
			t.Errorf("%q: %v", tc.list, err)
			continue
		}
		if !slices.Equal(figs, tc.figs) || fig5 != tc.fig5 {
			t.Errorf("%q selects %v, fig5 %v; want %v, %v", tc.list, figs, fig5, tc.figs, tc.fig5)
		}
	}

	const want = `sweep: unknown figure "fig5" (want one of [baseline fig7 fig8 fig10 pi period gains levels routing breakdown burst], paper tokens 2,4,5,6,7,8,10,pi,summary,ablation, or 'all')`
	for _, list := range []string{"fig5", "7, fig5", "all,fig5"} {
		if _, _, err := ResolveFigures(list); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %s", list, err, want)
		}
	}
}
