package dist

import "knor/internal/cluster"

// The collectives' cost model: what each mode's once-per-iteration
// merge of the per-machine delta accumulators (kmeans.Accum.
// SerializedBytes per machine) costs on the simulated cluster. Every
// rank charges its own replica cluster.Network with identical inputs,
// so all replicas hold identical clocks.
//
// The *value* of the reduction is always the fixed-rank-order fold of
// the allgathered deltas — costs here only advance simulated time, so
// the numerical result is independent of the algorithm being costed.
//
// Costs, with M machines, payload B, latency α, bandwidth β⁻¹:
//
//	ring allreduce (knord, MPI):
//	    setup + 2(M-1) · (α + B/(M·β))            — decentralised,
//	    per-NIC traffic 2B(M-1)/M, flat in M for the B term
//	driver aggregation (MLlib):
//	    setup per collective (gather + broadcast), serialize(B) per
//	    worker, then M-1 transfers of B queued through the master NIC,
//	    the driver-side merge, and a binomial broadcast of the new
//	    model — per-NIC traffic at the master grows linearly with M,
//	    the Figure 12 bottleneck.

// collective charges the configured iteration merge of payload bytes
// per machine on net, whose clocks hold each machine's local-phase end.
func collective(net *cluster.Network, mode Mode, payload int) {
	switch mode {
	case ModeKnord, ModeMPI:
		net.RingAllreduce(payload)
	case ModeMLlib:
		driverAggregate(net, payload)
	}
}

// driverAggregate is MLlib's master-worker merge: every executor
// serialises its partial sums and ships them to the driver (machine 0),
// queueing through the driver's NIC; the driver deserialises and folds
// the M-1 payloads serially, then broadcasts the new model. Workers
// deserialise the broadcast before resuming.
func driverAggregate(net *cluster.Network, payload int) {
	model := net.Model
	ser := float64(payload) * model.SerializeByteCost
	// Collective setup is paid once per collective — the gather here
	// and the broadcast below — matching the ring's accounting, plus
	// executor-side serialisation before the send leaves.
	for m := 1; m < net.M; m++ {
		net.Clock(m).Advance(model.NetSetup + ser)
	}
	net.Gather(0, payload)
	// Driver-side deserialise + merge of each arriving payload, plus
	// one model rebuild: serial work on the driver's clock. flops are
	// one add per sum/count slot per merged payload.
	flops := float64(payload) / 8 * model.FlopTime
	net.Clock(0).Advance(float64(net.M-1)*(ser+flops) + model.NetSetup)
	net.Bcast(0, payload)
	// Every worker unpacks the broadcast model.
	for m := 0; m < net.M; m++ {
		net.Clock(m).Advance(ser)
	}
}
