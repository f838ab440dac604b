/// Tests for the device and delay models behind the PCM structures.

#include <gtest/gtest.h>

#include <stdexcept>

#include "circuit/delay.hpp"
#include "circuit/mosfet.hpp"
#include "process/process_point.hpp"

namespace {

using htd::circuit::Inverter;
using htd::circuit::Mosfet;
using htd::circuit::MosfetGeometry;
using htd::circuit::MosType;
using htd::circuit::PcmPath;
using htd::circuit::RingOscillatorPcm;
using htd::circuit::WireSegment;
using htd::process::nominal_350nm;
using htd::process::Param;
using htd::process::ProcessPoint;

TEST(CoxModel, TextbookValueAt350nm) {
    // ~4.5 fF/um^2 for 7.6 nm oxide.
    EXPECT_NEAR(htd::process::cox_ff_per_um2(7.6), 4.54, 0.05);
    EXPECT_THROW((void)htd::process::cox_ff_per_um2(0.0), std::invalid_argument);
}

TEST(MosfetModel, RejectsBadConstruction) {
    EXPECT_THROW(Mosfet(MosType::kNmos, MosfetGeometry{0.0, 0.35}),
                 std::invalid_argument);
    EXPECT_THROW(Mosfet(MosType::kNmos, MosfetGeometry{1.0, 0.35}, 0.0),
                 std::invalid_argument);
}

TEST(MosfetModel, OffBelowThreshold) {
    const Mosfet nmos(MosType::kNmos, MosfetGeometry{10.0, 0.35});
    const ProcessPoint pp = nominal_350nm();
    EXPECT_EQ(nmos.saturation_current_ma(pp, 0.3), 0.0);
    EXPECT_GT(nmos.saturation_current_ma(pp, 1.0), 0.0);
}

TEST(MosfetModel, CurrentIncreasesWithGateDrive) {
    const Mosfet nmos(MosType::kNmos, MosfetGeometry{10.0, 0.35});
    const ProcessPoint pp = nominal_350nm();
    EXPECT_LT(nmos.saturation_current_ma(pp, 1.5),
              nmos.saturation_current_ma(pp, 2.5));
}

TEST(MosfetModel, CurrentScalesWithWidth) {
    const ProcessPoint pp = nominal_350nm();
    const Mosfet narrow(MosType::kNmos, MosfetGeometry{5.0, 0.35});
    const Mosfet wide(MosType::kNmos, MosfetGeometry{10.0, 0.35});
    EXPECT_NEAR(wide.saturation_current_ma(pp, 2.0),
                2.0 * narrow.saturation_current_ma(pp, 2.0), 1e-9);
}

TEST(MosfetModel, CurrentDropsWithHigherVth) {
    const Mosfet nmos(MosType::kNmos, MosfetGeometry{10.0, 0.35});
    ProcessPoint slow = nominal_350nm();
    slow.set(Param::kVthN, 0.70);
    EXPECT_LT(nmos.saturation_current_ma(slow, 2.0),
              nmos.saturation_current_ma(nominal_350nm(), 2.0));
}

TEST(MosfetModel, CurrentTracksMobility) {
    const Mosfet nmos(MosType::kNmos, MosfetGeometry{10.0, 0.35});
    ProcessPoint fast = nominal_350nm();
    fast.set(Param::kMuN, 500.0);
    EXPECT_GT(nmos.saturation_current_ma(fast, 2.0),
              nmos.saturation_current_ma(nominal_350nm(), 2.0));
}

TEST(MosfetModel, RealisticCurrentMagnitude) {
    // A 10/0.35 NMOS at full 3.3 V drive should deliver a few mA.
    const Mosfet nmos(MosType::kNmos, MosfetGeometry{10.0, 0.35});
    const double id = nmos.saturation_current_ma(nominal_350nm(), 3.3);
    EXPECT_GT(id, 0.5);
    EXPECT_LT(id, 20.0);
}

TEST(MosfetModel, TransconductancePositiveAndIncreasing) {
    const Mosfet nmos(MosType::kNmos, MosfetGeometry{10.0, 0.35});
    const ProcessPoint pp = nominal_350nm();
    const double gm1 = nmos.transconductance_ma_per_v(pp, 1.2);
    const double gm2 = nmos.transconductance_ma_per_v(pp, 2.4);
    EXPECT_GT(gm1, 0.0);
    EXPECT_GT(gm2, gm1);
}

TEST(MosfetModel, OnResistanceFiniteAndPositive) {
    const Mosfet nmos(MosType::kNmos, MosfetGeometry{4.0, 0.35});
    EXPECT_GT(nmos.on_resistance_kohm(nominal_350nm(), 3.3), 0.0);
    // Device off at vdd below threshold.
    ProcessPoint high_vth = nominal_350nm();
    high_vth.set(Param::kVthN, 4.0);
    EXPECT_THROW((void)nmos.on_resistance_kohm(high_vth, 3.3), std::domain_error);
}

TEST(MosfetModel, GateCapScalesWithArea) {
    const ProcessPoint pp = nominal_350nm();
    const Mosfet small(MosType::kNmos, MosfetGeometry{2.0, 0.35});
    const Mosfet large(MosType::kNmos, MosfetGeometry{8.0, 0.35});
    EXPECT_NEAR(large.gate_capacitance_ff(pp), 4.0 * small.gate_capacitance_ff(pp),
                1e-9);
    // Realistic magnitude: a 2/0.35 gate is around 3 fF.
    EXPECT_GT(small.gate_capacitance_ff(pp), 1.0);
    EXPECT_LT(small.gate_capacitance_ff(pp), 10.0);
}

// --- Inverter / wire -----------------------------------------------------------

TEST(InverterModel, DelayIncreasesWithLoad) {
    const Inverter inv(4.0);
    const ProcessPoint pp = nominal_350nm();
    EXPECT_LT(inv.propagation_delay_ps(pp, 10.0, 3.3),
              inv.propagation_delay_ps(pp, 50.0, 3.3));
    EXPECT_THROW((void)inv.propagation_delay_ps(pp, -1.0, 3.3), std::invalid_argument);
}

TEST(InverterModel, SlowerAtLowerSupply) {
    const Inverter inv(4.0);
    const ProcessPoint pp = nominal_350nm();
    EXPECT_GT(inv.propagation_delay_ps(pp, 20.0, 2.0),
              inv.propagation_delay_ps(pp, 20.0, 3.3));
}

TEST(WireModel, ScalesWithProcess) {
    const WireSegment wire{100.0, 0.08, 0.08};
    ProcessPoint pp = nominal_350nm();
    const double r_nom = wire.resistance_kohm(pp);
    pp.set(Param::kRsheet, 150.0);
    EXPECT_NEAR(wire.resistance_kohm(pp), 2.0 * r_nom, 1e-12);
    pp = nominal_350nm();
    const double c_nom = wire.capacitance_ff(pp);
    pp.set(Param::kCjScale, 2.0);
    EXPECT_NEAR(wire.capacitance_ff(pp), 2.0 * c_nom, 1e-12);
}

TEST(ElmoreLadder, MatchesHandComputation) {
    // Two-node ladder: R1=1k, C1=10f; R2=2k, C2=5f.
    // Elmore = R1*C1 + (R1+R2)*C2 = 10 + 15 = 25 ps.
    EXPECT_NEAR(htd::circuit::elmore_ladder_delay_ps({1.0, 2.0}, {10.0, 5.0}), 25.0,
                1e-12);
    EXPECT_THROW((void)htd::circuit::elmore_ladder_delay_ps({1.0}, {1.0, 2.0}),
                 std::invalid_argument);
}

// --- PCM structures ---------------------------------------------------------------

TEST(PcmPathModel, RejectsBadOptions) {
    PcmPath::Options opts;
    opts.stages = 0;
    EXPECT_THROW(PcmPath{opts}, std::invalid_argument);
    opts.stages = 4;
    opts.vdd = 0.0;
    EXPECT_THROW(PcmPath{opts}, std::invalid_argument);
}

TEST(PcmPathModel, DelayScalesWithStages) {
    PcmPath::Options short_opts;
    short_opts.stages = 8;
    PcmPath::Options long_opts;
    long_opts.stages = 16;
    const ProcessPoint pp = nominal_350nm();
    EXPECT_NEAR(PcmPath(long_opts).delay_ns(pp), 2.0 * PcmPath(short_opts).delay_ns(pp),
                1e-12);
}

TEST(PcmPathModel, SlowerAtSlowCorner) {
    const PcmPath path;
    ProcessPoint slow = nominal_350nm();
    slow.set(Param::kMuN, 350.0);
    slow.set(Param::kMuP, 110.0);
    slow.set(Param::kVthN, 0.62);
    EXPECT_GT(path.delay_ns(slow), path.delay_ns(nominal_350nm()));
}

TEST(PcmPathModel, DelayTracksSheetResistance) {
    const PcmPath path;
    ProcessPoint high_r = nominal_350nm();
    high_r.set(Param::kRsheet, 120.0);
    EXPECT_GT(path.delay_ns(high_r), path.delay_ns(nominal_350nm()));
}

TEST(RingOscillatorModel, RejectsEvenStageCount) {
    RingOscillatorPcm::Options opts;
    opts.stages = 30;
    EXPECT_THROW(RingOscillatorPcm{opts}, std::invalid_argument);
    opts.stages = 0;
    EXPECT_THROW(RingOscillatorPcm{opts}, std::invalid_argument);
}

TEST(RingOscillatorModel, FrequencyDropsWithMoreStages) {
    RingOscillatorPcm::Options few;
    few.stages = 11;
    RingOscillatorPcm::Options many;
    many.stages = 31;
    const ProcessPoint pp = nominal_350nm();
    EXPECT_GT(RingOscillatorPcm(few).frequency_mhz(pp),
              RingOscillatorPcm(many).frequency_mhz(pp));
}

TEST(RingOscillatorModel, FasterProcessOscillatesFaster) {
    const RingOscillatorPcm ro;
    ProcessPoint fast = nominal_350nm();
    fast.set(Param::kMuN, 500.0);
    fast.set(Param::kMuP, 170.0);
    EXPECT_GT(ro.frequency_mhz(fast), ro.frequency_mhz(nominal_350nm()));
}

TEST(RingOscillatorModel, AntiCorrelatedWithPathDelay) {
    // Across a set of process points, RO frequency and path delay move in
    // opposite directions — both are PCMs of the same silicon.
    const RingOscillatorPcm ro;
    const PcmPath path;
    ProcessPoint a = nominal_350nm();
    ProcessPoint b = nominal_350nm();
    b.set(Param::kMuN, 460.0);
    b.set(Param::kMuP, 155.0);
    const bool delay_faster = path.delay_ns(b) < path.delay_ns(a);
    const bool freq_higher = ro.frequency_mhz(b) > ro.frequency_mhz(a);
    EXPECT_EQ(delay_faster, freq_higher);
}

/// Property sweep: path delay is positive, finite and monotone in supply
/// voltage across a range of stage counts.
class PcmPathStages : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PcmPathStages, DelayPositiveAndSupplyMonotone) {
    PcmPath::Options lo_v;
    lo_v.stages = GetParam();
    lo_v.vdd = 2.5;
    PcmPath::Options hi_v;
    hi_v.stages = GetParam();
    hi_v.vdd = 3.3;
    const ProcessPoint pp = nominal_350nm();
    const double d_lo = PcmPath(lo_v).delay_ns(pp);
    const double d_hi = PcmPath(hi_v).delay_ns(pp);
    EXPECT_GT(d_lo, 0.0);
    EXPECT_GT(d_lo, d_hi);
}

INSTANTIATE_TEST_SUITE_P(Stages, PcmPathStages, ::testing::Values(1, 4, 16, 64));

}  // namespace
