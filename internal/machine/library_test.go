package machine

import "testing"

func TestCostFunctions(t *testing.T) {
	m := Library{SendSetupS: 1e-3, SendPerByteS: 1e-6, RecvSetupS: 5e-4, RecvPerByteS: 2e-6}
	if got := m.SendCPU(1000); got != 2e-3 {
		t.Errorf("SendCPU = %g", got)
	}
	if got := m.RecvCPU(1000); got != 2.5e-3 {
		t.Errorf("RecvCPU = %g", got)
	}
}

// TestLibraryOrdering pins the paper's library hierarchy: the native,
// user-space libraries (MPL, Cray PVM) cost far less per message than
// the daemon-based PVM family.
func TestLibraryOrdering(t *testing.T) {
	const msg = 6400
	pvm := PVM.SendCPU(msg) + PVM.RecvCPU(msg) + PVM.LatencyS + float64(msg)*PVM.PerByteLatencyS
	pvme := PVMe.SendCPU(msg) + PVMe.RecvCPU(msg) + PVMe.LatencyS + float64(msg)*PVMe.PerByteLatencyS
	mpl := MPL.SendCPU(msg) + MPL.RecvCPU(msg) + MPL.LatencyS
	cray := CrayPVM.SendCPU(msg) + CrayPVM.RecvCPU(msg) + CrayPVM.LatencyS
	if !(mpl < pvm && mpl < pvme) {
		t.Errorf("MPL (%g) should be cheapest on the SP: pvm %g pvme %g", mpl, pvm, pvme)
	}
	if !(cray < mpl*3) {
		t.Errorf("Cray PVM per-message cost %g out of family", cray)
	}
	if !(pvme > mpl*5) {
		t.Errorf("PVMe (%g) should be far costlier than MPL (%g)", pvme, mpl)
	}
}

func TestSemantics(t *testing.T) {
	if !MPL.Rendezvous {
		t.Error("MPL models the paper's blocking send")
	}
	if PVM.Rendezvous || PVMe.Rendezvous || CrayPVM.Rendezvous {
		t.Error("PVM family is eager")
	}
}
