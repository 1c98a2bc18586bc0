//! The capacitor energy buffer.

use ehsim_mem::Pj;

/// Joules → picojoules.
const J_TO_PJ: f64 = 1e12;

/// Half of [`J_TO_PJ`], exactly: `pj / HALF_J_TO_PJ` is `2 · pj` in
/// joules.
const HALF_J_TO_PJ: f64 = 5e11;

/// The capacitor that buffers harvested energy (`E = ½CV²`).
///
/// The capacitor operates between `v_min` (below which the system is
/// dead — a correctly provisioned design never reaches it) and `v_max`
/// (charging saturates). The default configuration matches the paper's
/// 1 µF buffer with a 2.8 V–3.5 V window (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    capacitance_f: f64,
    voltage: f64,
    v_min: f64,
    v_max: f64,
    /// `energy_at_pj(v_min)`, precomputed once at construction with the
    /// identical `½CV²` expression so [`Capacitor::energy_above_min_pj`]
    /// returns bit-for-bit what `energy_above_pj(v_min)` would.
    e_at_v_min_pj: Pj,
}

impl Capacitor {
    /// Creates a capacitor of `capacitance_f` farads operating between
    /// `v_min` and `v_max` volts, initially charged to `v_min`.
    ///
    /// # Panics
    ///
    /// Panics if `capacitance_f <= 0` or `v_min >= v_max` or `v_min < 0`.
    pub fn new(capacitance_f: f64, v_min: f64, v_max: f64) -> Self {
        assert!(capacitance_f > 0.0, "capacitance must be positive");
        assert!(v_min >= 0.0 && v_min < v_max, "need 0 <= v_min < v_max");
        Self {
            capacitance_f,
            voltage: v_min,
            v_min,
            v_max,
            e_at_v_min_pj: 0.5 * capacitance_f * v_min * v_min * J_TO_PJ,
        }
    }

    /// Creates a capacitor specified in microfarads.
    pub fn with_uf(uf: f64, v_min: f64, v_max: f64) -> Self {
        Self::new(uf * 1e-6, v_min, v_max)
    }

    /// The paper's default buffer: 1 µF, 2.8 V–3.5 V (Table 2).
    pub fn paper_default() -> Self {
        Self::with_uf(1.0, 2.8, 3.5)
    }

    /// Capacitance in farads.
    pub fn capacitance_f(&self) -> f64 {
        self.capacitance_f
    }

    /// Current voltage in volts.
    #[inline]
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// Lower operating voltage bound.
    #[inline]
    pub fn v_min(&self) -> f64 {
        self.v_min
    }

    /// Upper operating voltage bound.
    #[inline]
    pub fn v_max(&self) -> f64 {
        self.v_max
    }

    /// Sets the voltage directly (clamped to `[0, v_max]`).
    #[inline]
    pub fn set_voltage(&mut self, v: f64) {
        self.voltage = v.clamp(0.0, self.v_max);
    }

    /// Total stored energy at the current voltage, in picojoules.
    #[inline]
    pub fn energy_pj(&self) -> Pj {
        self.energy_at_pj(self.voltage)
    }

    /// Stored energy at voltage `v`, in picojoules.
    #[inline]
    pub fn energy_at_pj(&self, v: f64) -> Pj {
        0.5 * self.capacitance_f * v * v * J_TO_PJ
    }

    /// Energy released when discharging from `v_hi` down to `v_lo`, in
    /// picojoules. Returns 0 if `v_hi <= v_lo`.
    #[inline]
    pub fn energy_between_pj(&self, v_hi: f64, v_lo: f64) -> Pj {
        (self.energy_at_pj(v_hi) - self.energy_at_pj(v_lo)).max(0.0)
    }

    /// Energy still available before the voltage would fall to `v_floor`.
    pub fn energy_above_pj(&self, v_floor: f64) -> Pj {
        self.energy_between_pj(self.voltage, v_floor)
    }

    /// Energy still available before the voltage would fall to `v_min` —
    /// equal to `energy_above_pj(self.v_min())`, with the floor energy
    /// taken from the construction-time cache instead of recomputed on
    /// every call (this sits on the simulator's per-retire path).
    #[inline]
    pub fn energy_above_min_pj(&self) -> Pj {
        (self.energy_at_pj(self.voltage) - self.e_at_v_min_pj).max(0.0)
    }

    /// Drains `pj` picojoules, lowering the voltage (floored at 0 V).
    /// Returns the new voltage.
    #[inline]
    pub fn drain_pj(&mut self, pj: Pj) -> f64 {
        let e = (self.energy_pj() - pj).max(0.0);
        self.voltage = self.voltage_for_energy(e);
        self.voltage
    }

    /// Adds `pj` picojoules of charge, raising the voltage (capped at
    /// `v_max`). Returns the new voltage.
    #[inline]
    pub fn charge_pj(&mut self, pj: Pj) -> f64 {
        let e = self.energy_pj() + pj;
        self.voltage = self.voltage_for_energy(e).min(self.v_max);
        self.voltage
    }

    /// Voltage corresponding to a stored energy of `pj` picojoules.
    ///
    /// `V = sqrt(2E / C)` with `E` in joules. `pj / 5e11` is the seed's
    /// `2.0 * pj / J_TO_PJ` in one division instead of a multiply and a
    /// division: doubling is exact and `1e12 = 2 · 5e11` exactly, so
    /// both round the same real quotient and agree bit for bit (pinned
    /// by a proptest below). It shortens the per-settle f64 chain.
    #[inline]
    pub fn voltage_for_energy(&self, pj: Pj) -> f64 {
        (pj / HALF_J_TO_PJ / self.capacitance_f).max(0.0).sqrt()
    }

    /// Register-carried counterpart of [`Capacitor::charge_pj`]: the
    /// voltage after adding `pj` picojoules to a capacitor currently at
    /// `v`, computed with the identical f64 operations in the identical
    /// order, but with the voltage passed in and returned instead of
    /// read from and written to `self.voltage`. The batched settlement
    /// loop keeps the carried voltage in a register across a whole run
    /// of settlements; bit-identity with the mutating path is pinned by
    /// a proptest below.
    #[inline]
    pub fn charged_voltage_at(&self, v: f64, pj: Pj) -> f64 {
        let e = self.energy_at_pj(v) + pj;
        self.voltage_for_energy(e).min(self.v_max)
    }

    /// Register-carried counterpart of [`Capacitor::drain_pj`]: the
    /// voltage after draining `pj` picojoules from a capacitor at `v`.
    #[inline]
    pub fn drained_voltage_at(&self, v: f64, pj: Pj) -> f64 {
        let e = (self.energy_at_pj(v) - pj).max(0.0);
        self.voltage_for_energy(e)
    }
}

impl Default for Capacitor {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_default_geometry() {
        let c = Capacitor::paper_default();
        assert_eq!(c.capacitance_f(), 1e-6);
        assert_eq!(c.v_min(), 2.8);
        assert_eq!(c.v_max(), 3.5);
        assert_eq!(c.voltage(), 2.8);
    }

    #[test]
    fn energy_formula_half_cv2() {
        let c = Capacitor::with_uf(1.0, 0.0, 5.0);
        // ½ · 1e-6 F · (2 V)² = 2e-6 J = 2e6 pJ
        assert!((c.energy_at_pj(2.0) - 2e6).abs() < 1.0);
    }

    #[test]
    fn usable_window_of_paper_buffer() {
        // ½·1µF·(3.3² − 2.8²) ≈ 1.525 µJ: the compute budget of an
        // NV-cache interval (boot at 3.3, die at 2.8).
        let c = Capacitor::paper_default();
        let e = c.energy_between_pj(3.3, 2.8);
        assert!((e - 1.525e6).abs() < 1e3, "got {e}");
    }

    #[test]
    fn drain_then_charge_round_trips() {
        let mut c = Capacitor::paper_default();
        c.set_voltage(3.3);
        let e0 = c.energy_pj();
        c.drain_pj(100_000.0);
        c.charge_pj(100_000.0);
        assert!((c.energy_pj() - e0).abs() < 1.0);
    }

    #[test]
    fn charge_saturates_at_v_max() {
        let mut c = Capacitor::paper_default();
        c.set_voltage(3.49);
        c.charge_pj(1e9);
        assert_eq!(c.voltage(), 3.5);
    }

    #[test]
    fn drain_floors_at_zero() {
        let mut c = Capacitor::paper_default();
        c.set_voltage(2.9);
        c.drain_pj(1e12);
        assert_eq!(c.voltage(), 0.0);
        assert_eq!(c.energy_pj(), 0.0);
    }

    #[test]
    fn set_voltage_clamps() {
        let mut c = Capacitor::paper_default();
        c.set_voltage(9.0);
        assert_eq!(c.voltage(), 3.5);
        c.set_voltage(-1.0);
        assert_eq!(c.voltage(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacitance")]
    fn zero_capacitance_rejected() {
        let _ = Capacitor::new(0.0, 2.8, 3.5);
    }

    proptest! {
        #[test]
        fn voltage_for_energy_inverts_energy_at(v in 0.0f64..5.0) {
            let c = Capacitor::with_uf(3.3, 0.0, 5.0);
            let e = c.energy_at_pj(v);
            prop_assert!((c.voltage_for_energy(e) - v).abs() < 1e-9);
        }

        #[test]
        fn energy_above_min_matches_uncached(v in 0.0f64..3.5) {
            let mut c = Capacitor::paper_default();
            c.set_voltage(v);
            // Bit-identical, not approximately equal: the cached floor
            // energy must not perturb the per-retire context values.
            prop_assert_eq!(
                c.energy_above_min_pj().to_bits(),
                c.energy_above_pj(c.v_min()).to_bits()
            );
        }

        #[test]
        fn voltage_for_energy_matches_the_seed_expression(
            pj in prop_oneof![
                // Any finite magnitude below 2^1023, so `2.0 * pj`
                // cannot overflow, with either sign.
                (any::<u64>(), any::<bool>()).prop_map(|(b, neg)| {
                    let x = f64::from_bits(b % 0x7fe0_0000_0000_0000);
                    if neg { -x } else { x }
                }),
                // Zero and the subnormals.
                (0u64..1 << 52).prop_map(f64::from_bits),
                Just(0.0),
                // The simulator's range.
                0.0f64..1e7,
            ],
            uf in 0.01f64..10.0,
        ) {
            let c = Capacitor::with_uf(uf, 0.0, 5.0);
            let seed = (2.0 * pj / J_TO_PJ / c.capacitance_f()).max(0.0).sqrt();
            prop_assert_eq!(c.voltage_for_energy(pj).to_bits(), seed.to_bits());
        }

        #[test]
        fn drain_is_monotone(v in 2.8f64..3.5, pj in 0.0f64..1e6) {
            let mut c = Capacitor::paper_default();
            c.set_voltage(v);
            let before = c.voltage();
            c.drain_pj(pj);
            prop_assert!(c.voltage() <= before);
        }

        #[test]
        fn charged_voltage_at_matches_charge_pj(v in 0.0f64..3.5, pj in 0.0f64..1e7) {
            let mut c = Capacitor::paper_default();
            c.set_voltage(v);
            // Bit-identical, not approximately equal: the batched
            // settlement loop substitutes the register-carried form for
            // the mutating one mid-sequence.
            let carried = c.charged_voltage_at(c.voltage(), pj);
            c.charge_pj(pj);
            prop_assert_eq!(carried.to_bits(), c.voltage().to_bits());
        }

        #[test]
        fn drained_voltage_at_matches_drain_pj(v in 0.0f64..3.5, pj in 0.0f64..1e7) {
            let mut c = Capacitor::paper_default();
            c.set_voltage(v);
            let carried = c.drained_voltage_at(c.voltage(), pj);
            c.drain_pj(pj);
            prop_assert_eq!(carried.to_bits(), c.voltage().to_bits());
        }
    }
}
