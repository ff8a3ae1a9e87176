//! Pin the reproduction to the paper's §IV parameters: if a refactor
//! drifts any headline constant, this file fails.

use wimnet::core::SystemConfig;
use wimnet::energy::EnergyModel;
use wimnet::memory::WideIoSpec;
use wimnet::topology::{Architecture, MultichipConfig, MultichipLayout};
use wimnet::wireless::{ChannelConfig, TransceiverSpec, ZigzagAntenna};

#[test]
fn simulation_parameters_match_section_iv() {
    let cfg = SystemConfig::xcym(4, 4, Architecture::Wireless);
    assert_eq!(cfg.vcs, 8, "8 VCs per port");
    assert_eq!(cfg.buf_depth, 16, "16-flit buffers");
    assert_eq!(cfg.flit_bits, 32, "32-bit flits");
    assert_eq!(cfg.packet_flits, 64, "64-flit packets");
    assert_eq!(cfg.warmup_cycles, 1_000, "1,000 warmup iterations");
    assert_eq!(
        cfg.warmup_cycles + cfg.measure_cycles,
        10_000,
        "10,000 total iterations"
    );
}

#[test]
fn technology_constants_match_the_citations() {
    let e = EnergyModel::paper_65nm();
    assert!((e.clock.gigahertz() - 2.5).abs() < 1e-12, "2.5 GHz clock");
    assert_eq!(e.supply_voltage, 1.0, "1 V supply");
    assert!(
        (e.wireless_tx_pj_per_bit + e.wireless_rx_pj_per_bit - 2.3).abs() < 1e-12,
        "2.3 pJ/bit transceiver"
    );
    assert_eq!(e.serial_io_pj_per_bit, 5.0, "5 pJ/bit serial I/O (ref [8])");
    assert_eq!(e.wide_io_pj_per_bit, 6.5, "6.5 pJ/bit wide I/O (ref [19])");
}

#[test]
fn transceiver_and_antenna_match_section_iii() {
    let t = TransceiverSpec::paper();
    assert_eq!(t.data_rate_gbps, 16.0, "16 Gbps OOK");
    assert_eq!(t.area_mm2, 0.3, "0.3 mm^2 per transceiver");
    assert!(t.ber <= 1e-15, "BER < 1e-15");
    let a = ZigzagAntenna::paper();
    assert_eq!(a.frequency_ghz, 60.0, "60 GHz band");
    assert_eq!(a.bandwidth_ghz, 16.0, "16 GHz antenna bandwidth");
    assert_eq!(a.gain_dbi, 0.0, "non-directional");
    // The link budget behind that BER: a +5 dBm OOK transmitter against a
    // -82 dBm noise floor holds it across a 4C4M package (< 100 mm).
    assert!(a.link_ber(5.0, 100.0, -82.0) < t.ber, "package-scale links meet the BER");
}

#[test]
fn wide_io_matches_ref_19() {
    let w = WideIoSpec::paper();
    assert_eq!(w.width_bits, 128, "128-bit channel");
    assert!((w.clock.gigahertz() - 1.0).abs() < 1e-12, "1 GHz");
    assert!((w.bandwidth_gbps() - 128.0).abs() < 1e-9, "128 Gbps per stack");
    assert_eq!(w.ubump_pitch_um, 50.0, "50 um u-bump pitch");
    assert_eq!(w.die_edge_mm, 10.0, "10 mm die edge");
}

#[test]
fn channel_serialisation_matches_the_flit_clock_maths() {
    // 32-bit flit / 16 Gbps = 2 ns = 5 cycles at 2.5 GHz.
    assert_eq!(ChannelConfig::paper(8).cycles_per_flit(), 5);
}

#[test]
fn paper_systems_have_the_right_shapes() {
    // 4C4M: four 16-core chips (10 mm x 10 mm at 2.5 mm tile pitch).
    let l = MultichipLayout::build(&MultichipConfig::xcym(4, 4, Architecture::Wireless))
        .unwrap();
    assert_eq!(l.total_cores(), 64);
    assert_eq!(l.chip_spec().cores(), 16);
    assert!((l.chip_spec().die_width_mm() - 10.0).abs() < 1e-9);
    assert_eq!(l.wireless_interfaces().len(), 8, "4 chip WIs + 4 stack WIs");

    // 8C4M keeps 64 cores and uses 1 WI per chip.
    let l = MultichipLayout::build(&MultichipConfig::xcym(8, 4, Architecture::Wireless))
        .unwrap();
    assert_eq!(l.total_cores(), 64);
    assert_eq!(l.wireless_interfaces().len(), 12, "8 chip WIs + 4 stack WIs");

    // 1C4M: one 64-core chip with 1 WI / 16 cores.
    let l = MultichipLayout::build(&MultichipConfig::xcym(1, 4, Architecture::Wireless))
        .unwrap();
    assert_eq!(l.wireless_interfaces().len(), 8, "4 chip WIs + 4 stack WIs");
}

#[test]
fn memory_stacks_match_section_iv() {
    let cfg = MultichipConfig::xcym(4, 4, Architecture::Substrate);
    assert_eq!(cfg.memory.layers, 4, "4-layer stacked DRAM");
    assert_eq!(cfg.memory.channels, 4, "four channels per stack");
}
