//! A gate-level logic simulator — the original home of the timing wheel
//! (§4.2: TEGAS \[11\], DECSIM \[12\], Ulrich's time-sequenced simulation \[13\]).
//!
//! Gates have propagation delays; when an input net changes, an evaluation
//! event for each gate on its fan-out is scheduled `delay` ticks ahead.
//! At fire time the gate re-samples its inputs and, only if its output
//! actually changes, propagates — Ulrich's "selective tracing of active
//! network paths". The event list is any [`TimerScheme`], the point of the
//! §4.2 correspondence; the default is the Figure 7 [`SimWheel`].
//!
//! [`SimWheel`]: crate::sim_wheel::SimWheel

use tw_core::scheme::TimerSchemeExt;
use tw_core::{TickDelta, TimerScheme};

/// A wire carrying a boolean level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetId(pub u32);

/// Index of a gate within a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateId(pub u32);

/// Combinational gate kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Output = AND of all inputs.
    And,
    /// Output = OR of all inputs.
    Or,
    /// Output = NOT of the single input.
    Not,
    /// Output = XOR (parity) of all inputs.
    Xor,
    /// Output = NAND of all inputs.
    Nand,
    /// Output = NOR of all inputs.
    Nor,
    /// Output = the single input (delay buffer).
    Buf,
}

impl GateKind {
    fn eval(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Not => !inputs[0],
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Buf => inputs[0],
        }
    }
}

struct Gate {
    kind: GateKind,
    inputs: Vec<NetId>,
    output: NetId,
    delay: u64,
}

/// A gate-level netlist under construction.
#[derive(Default)]
pub struct Circuit {
    gates: Vec<Gate>,
    net_count: u32,
    /// For each net, the gates it feeds.
    fanout: Vec<Vec<GateId>>,
}

impl Circuit {
    /// Creates an empty circuit.
    #[must_use]
    pub fn new() -> Circuit {
        Circuit::default()
    }

    /// Allocates a primary input (or internal) net, initially low.
    pub fn net(&mut self) -> NetId {
        let id = NetId(self.net_count);
        self.net_count += 1;
        self.fanout.push(Vec::new());
        id
    }

    /// Adds a gate; returns its (freshly allocated) output net.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, a single-input kind gets several inputs,
    /// or `delay` is zero (every physical gate takes time).
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId], delay: u64) -> NetId {
        let output = self.net();
        self.gate_into(kind, inputs, delay, output);
        output
    }

    /// Adds a gate driving a *pre-allocated* net — the feedback primitive.
    ///
    /// Because [`gate`](Self::gate) can only reference already-created nets,
    /// combinational cycles are impossible through it; sequential circuits
    /// (latches, oscillators) allocate their feedback nets up front with
    /// [`net`](Self::net) and close the loop here.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, a single-input kind gets several inputs,
    /// `delay` is zero, or `output` is already driven by another gate
    /// (single-writer nets).
    pub fn gate_into(&mut self, kind: GateKind, inputs: &[NetId], delay: u64, output: NetId) {
        assert!(!inputs.is_empty(), "gate needs at least one input");
        assert!(delay >= 1, "gate delay must be at least one tick");
        if matches!(kind, GateKind::Not | GateKind::Buf) {
            assert_eq!(inputs.len(), 1, "{kind:?} takes exactly one input");
        }
        assert!(
            self.gates.iter().all(|g| g.output != output),
            "net {} already has a driver",
            output.0
        );
        let gid = GateId(u32::try_from(self.gates.len()).expect("too many gates"));
        for &i in inputs {
            self.fanout[i.0 as usize].push(gid);
        }
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
            delay,
        });
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_count as usize
    }

    /// Number of gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }
}

/// One recorded transition on a monitored net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Simulation time of the change.
    pub at: u64,
    /// The net that changed.
    pub net: NetId,
    /// Its new level.
    pub value: bool,
}

/// The event-driven logic simulator. See the [module docs](self).
pub struct LogicSim<S> {
    circuit: Circuit,
    values: Vec<bool>,
    scheduler: S,
    monitored: Vec<bool>,
    waveform: Vec<Transition>,
    evaluations: u64,
}

impl<S: TimerScheme<u32>> LogicSim<S> {
    /// Wraps a circuit and a timer scheme (the event list).
    pub fn new(circuit: Circuit, scheduler: S) -> LogicSim<S> {
        let values = vec![false; circuit.net_count()];
        let monitored = vec![false; circuit.net_count()];
        LogicSim {
            circuit,
            values,
            scheduler,
            monitored,
            waveform: Vec::new(),
            evaluations: 0,
        }
    }

    /// Records all future transitions of `net` into the waveform.
    pub fn monitor(&mut self, net: NetId) {
        self.monitored[net.0 as usize] = true;
    }

    /// Current level of a net.
    #[must_use]
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.0 as usize]
    }

    /// The recorded transitions of monitored nets, in time order.
    #[must_use]
    pub fn waveform(&self) -> &[Transition] {
        &self.waveform
    }

    /// Total gate evaluations performed (the selective-tracing work metric).
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.scheduler.now().as_u64()
    }

    /// Schedules one evaluation of every gate (after its own delay).
    ///
    /// Nets start all-low, which is generally inconsistent (a NOT gate's
    /// output should be high); call this once after construction and then
    /// [`settle`](Self::settle) (or keep stepping, for circuits that never
    /// settle, like ring oscillators).
    pub fn initialize(&mut self) {
        for gid in 0..self.circuit.gates.len() {
            let delay = self.circuit.gates[gid].delay;
            self.scheduler
                .start_timer(TickDelta(delay), u32::try_from(gid).unwrap_or(u32::MAX))
                .expect("gate delay within scheme range");
        }
    }

    /// Drives a primary input to `value` at the current time, scheduling the
    /// affected gates.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        if self.values[net.0 as usize] != value {
            self.values[net.0 as usize] = value;
            self.record(net, value);
            self.schedule_fanout(net);
        }
    }

    fn record(&mut self, net: NetId, value: bool) {
        if self.monitored[net.0 as usize] {
            self.waveform.push(Transition {
                at: self.scheduler.now().as_u64(),
                net,
                value,
            });
        }
    }

    fn schedule_fanout(&mut self, net: NetId) {
        for i in 0..self.circuit.fanout[net.0 as usize].len() {
            let gid = self.circuit.fanout[net.0 as usize][i];
            let delay = self.circuit.gates[gid.0 as usize].delay;
            self.scheduler
                .start_timer(TickDelta(delay), gid.0)
                .expect("gate delay within scheme range");
        }
    }

    /// Advances the simulation one tick, evaluating any due gates.
    pub fn step(&mut self) {
        let mut due: Vec<u32> = Vec::new();
        self.scheduler.tick(&mut |e| due.push(e.payload));
        for gid in due {
            self.evaluations += 1;
            let gate = &self.circuit.gates[gid as usize];
            let inputs: Vec<bool> = gate
                .inputs
                .iter()
                .map(|n| self.values[n.0 as usize])
                .collect();
            let out = gate.kind.eval(&inputs);
            let net = gate.output;
            if self.values[net.0 as usize] != out {
                self.values[net.0 as usize] = out;
                self.record(net, out);
                self.schedule_fanout(net);
            }
        }
    }

    /// Runs until simulation time `until` or event exhaustion.
    pub fn run_until(&mut self, until: u64) {
        while self.now() < until {
            if self.scheduler.outstanding() == 0 {
                self.scheduler.run_ticks(until - self.now());
                break;
            }
            self.step();
        }
    }

    /// Runs until no events remain (settles combinational logic).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not settled within `max_ticks` (e.g. a ring
    /// oscillator never settles).
    pub fn settle(&mut self, max_ticks: u64) {
        let start = self.now();
        while self.scheduler.outstanding() > 0 {
            assert!(
                self.now() - start < max_ticks,
                "circuit did not settle within {max_ticks} ticks"
            );
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_wheel::{RotationPolicy, SimWheel};
    use tw_core::wheel::HashedWheelUnsorted;

    fn sim(circuit: Circuit) -> LogicSim<SimWheel<u32>> {
        LogicSim::new(circuit, SimWheel::new(64, RotationPolicy::OnWrap))
    }

    /// One-bit full adder out of 2 XOR, 2 AND, 1 OR.
    fn full_adder(c: &mut Circuit, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        let axb = c.gate(GateKind::Xor, &[a, b], 1);
        let sum = c.gate(GateKind::Xor, &[axb, cin], 1);
        let and1 = c.gate(GateKind::And, &[a, b], 1);
        let and2 = c.gate(GateKind::And, &[axb, cin], 1);
        let cout = c.gate(GateKind::Or, &[and1, and2], 1);
        (sum, cout)
    }

    #[test]
    fn gate_truth_tables() {
        let cases: &[(GateKind, &[bool], bool)] = &[
            (GateKind::And, &[true, true], true),
            (GateKind::And, &[true, false], false),
            (GateKind::Or, &[false, false], false),
            (GateKind::Or, &[false, true], true),
            (GateKind::Not, &[true], false),
            (GateKind::Xor, &[true, true, true], true),
            (GateKind::Xor, &[true, true], false),
            (GateKind::Nand, &[true, true], false),
            (GateKind::Nor, &[false, false], true),
            (GateKind::Buf, &[true], true),
        ];
        for &(kind, inputs, want) in cases {
            assert_eq!(kind.eval(inputs), want, "{kind:?} {inputs:?}");
        }
    }

    #[test]
    fn inverter_propagates_after_delay() {
        let mut c = Circuit::new();
        let a = c.net();
        let y = c.gate(GateKind::Not, &[a], 3);
        let mut s = sim(c);
        s.monitor(y);
        s.initialize();
        s.settle(10);
        assert!(s.value(y), "NOT of low input is high");
        let t0 = s.now();
        s.set_input(a, true);
        s.run_until(t0 + 2);
        assert!(s.value(y), "before the delay elapses the output holds");
        s.run_until(t0 + 3);
        assert!(!s.value(y), "after 3 ticks the inverter switches");
    }

    #[test]
    fn full_adder_exhaustive() {
        for bits in 0..8u8 {
            let (av, bv, cv) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let mut c = Circuit::new();
            let a = c.net();
            let b = c.net();
            let cin = c.net();
            let (sum, cout) = full_adder(&mut c, a, b, cin);
            let mut s = sim(c);
            s.set_input(a, av);
            s.set_input(b, bv);
            s.set_input(cin, cv);
            s.initialize();
            s.settle(100);
            let total = u8::from(av) + u8::from(bv) + u8::from(cv);
            assert_eq!(s.value(sum), total & 1 != 0, "sum for {bits:03b}");
            assert_eq!(s.value(cout), total >= 2, "carry for {bits:03b}");
        }
    }

    #[test]
    fn ripple_adder_4bit_random_vectors() {
        // 4-bit ripple-carry adder, checked against machine arithmetic.
        let mut x = 5u64;
        for _ in 0..20 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let av = (x >> 3) & 0xF;
            let bv = (x >> 13) & 0xF;
            let mut c = Circuit::new();
            let a: Vec<NetId> = (0..4).map(|_| c.net()).collect();
            let b: Vec<NetId> = (0..4).map(|_| c.net()).collect();
            let zero = c.net();
            let mut carry = zero;
            let mut sums = Vec::new();
            for i in 0..4 {
                let (s_, c_) = full_adder(&mut c, a[i], b[i], carry);
                sums.push(s_);
                carry = c_;
            }
            let mut s = sim(c);
            for (i, (&an, &bn)) in a.iter().zip(&b).enumerate() {
                s.set_input(an, (av >> i) & 1 != 0);
                s.set_input(bn, (bv >> i) & 1 != 0);
            }
            s.initialize();
            s.settle(1_000);
            let mut got = 0u64;
            for (i, &sum) in sums.iter().enumerate() {
                got |= u64::from(s.value(sum)) << i;
            }
            got |= u64::from(s.value(carry)) << 4;
            assert_eq!(got, av + bv, "{av} + {bv}");
        }
    }

    #[test]
    fn ring_oscillator_period() {
        // Three inverters in a closed ring (via gate_into feedback): no
        // stable state, so it oscillates with period 2 × total delay.
        let mut c = Circuit::new();
        let feedback = c.net();
        let g1 = c.gate(GateKind::Not, &[feedback], 2);
        let g2 = c.gate(GateKind::Not, &[g1], 2);
        c.gate_into(GateKind::Not, &[g2], 2, feedback);
        let mut s = LogicSim::new(c, SimWheel::new(32, RotationPolicy::OnWrap));
        s.monitor(feedback);
        s.initialize();
        for _ in 0..200 {
            s.step();
        }
        let transitions = s.waveform().len();
        // Period = 2 × 3 gates × 2 ticks = 12; one feedback-net transition
        // per half period → ~200/6 ≈ 33, with startup slack.
        assert!(
            (25..=40).contains(&transitions),
            "oscillation transitions = {transitions}"
        );
        // And the spacing between steady-state transitions is the period/2.
        let w = s.waveform();
        let gaps: Vec<u64> = w.windows(2).map(|p| p[1].at - p[0].at).collect();
        assert!(gaps[gaps.len() / 2..].iter().all(|&g| g == 6), "{gaps:?}");
    }

    #[test]
    fn sr_latch_holds_state() {
        // Cross-coupled NORs: a real sequential element through gate_into.
        let mut c = Circuit::new();
        let set = c.net();
        let reset = c.net();
        let q = c.net();
        let qn = c.net();
        c.gate_into(GateKind::Nor, &[reset, qn], 1, q);
        c.gate_into(GateKind::Nor, &[set, q], 1, qn);
        let mut s = sim(c);
        // Power-up with reset held: Q settles low.
        s.set_input(reset, true);
        s.initialize();
        s.settle(50);
        s.set_input(reset, false);
        s.settle(50);
        assert!(!s.value(q));
        assert!(s.value(qn));
        // Pulse SET: Q latches high and *stays* high after SET drops.
        s.set_input(set, true);
        s.settle(50);
        s.set_input(set, false);
        s.settle(50);
        assert!(s.value(q), "latched");
        assert!(!s.value(qn));
        // Pulse RESET: Q returns low.
        s.set_input(reset, true);
        s.settle(50);
        s.set_input(reset, false);
        s.settle(50);
        assert!(!s.value(q));
        assert!(s.value(qn));
    }

    #[test]
    fn selective_tracing_skips_inactive_paths() {
        // A wide AND tree whose inputs never change after setup: evaluations
        // stay proportional to the active path, not the circuit size.
        let mut c = Circuit::new();
        let hot = c.net();
        let cold: Vec<NetId> = (0..64).map(|_| c.net()).collect();
        let cold_or = c.gate(GateKind::Or, &cold, 1);
        let out = c.gate(GateKind::And, &[hot, cold_or], 1);
        let mut s = sim(c);
        s.set_input(cold[0], true);
        s.initialize();
        s.settle(10);
        let base = s.evaluations();
        // Toggle only the hot input; the OR tree must not re-evaluate.
        for _ in 0..10 {
            let v = s.value(hot);
            s.set_input(hot, !v);
            s.settle(10);
        }
        let per_toggle = (s.evaluations() - base) as f64 / 10.0;
        assert!(per_toggle <= 2.0, "evaluations per toggle {per_toggle}");
        assert!(s.value(out) == s.value(hot));
    }

    #[test]
    fn works_over_any_timer_scheme() {
        // The §4.2 duality: run the same adder on a Scheme 6 wheel.
        let mut c = Circuit::new();
        let a = c.net();
        let b = c.net();
        let cin = c.net();
        let (sum, cout) = full_adder(&mut c, a, b, cin);
        let mut s = LogicSim::new(c, HashedWheelUnsorted::new(16));
        s.set_input(a, true);
        s.set_input(b, true);
        s.set_input(cin, true);
        s.initialize();
        s.settle(100);
        assert!(s.value(sum));
        assert!(s.value(cout));
    }
}
