// E24 — physical layer: symbol-error waterfall of the commodity
// transponder (Fig. 3's receive path under loss and amplifier noise).
//
// Grounds the rest of the system: the links the runtime treats as clean
// really are clean in their design regime, and degrade the way coherent
// links do — PAM-4 loses to PAM-2 at equal loss, ASE accumulates across
// amplified spans.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/transponder.hpp"
#include "photonics/fiber.hpp"
#include "photonics/rng.hpp"

using namespace onfiber;
using namespace onfiber::bench;

namespace {

double symbol_error_rate(core::line_coding coding, double loss_db,
                         int amplified_spans, std::uint64_t seed) {
  core::transponder_config cfg;
  cfg.coding = coding;
  core::commodity_transponder t(cfg, seed);
  phot::rng g(seed ^ 0x5555);
  std::vector<std::uint8_t> bytes(2048);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(g.below(256));
  phot::waveform wave = t.transmit(bytes);
  const double symbols = static_cast<double>(wave.size());
  if (loss_db > 0.0) {
    for (auto& e : wave) e *= phot::field_loss_scale(loss_db);
  }
  for (int s = 0; s < amplified_spans; ++s) {
    phot::fiber_config fc;
    fc.length_km = 80.0;
    fc.amplified = true;
    fc.symbol_rate_hz = t.config().symbol_rate_hz;
    phot::fiber_span span(fc, seed + static_cast<std::uint64_t>(s));
    wave = span.propagate(wave);
  }
  return static_cast<double>(t.receive(wave, bytes).symbol_errors) / symbols;
}

}  // namespace

int main() {
  banner("E24 / Fig. 3 physics", "transponder symbol-error waterfall");

  note("SER vs uncompensated loss (8192-byte burst, 50 GBd)");
  std::printf("  %12s %14s %14s\n", "loss [dB]", "PAM-2 SER", "PAM-4 SER");
  for (const double loss : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0}) {
    std::printf("  %12.1f %14.5f %14.5f\n", loss,
                symbol_error_rate(core::line_coding::pam2, loss, 0, 11),
                symbol_error_rate(core::line_coding::pam4, loss, 0, 11));
  }
  note("  (PAM-4's 3x smaller eye closes first — the usual reach/rate trade)");

  note("");
  note("SER vs amplified 80 km spans (EDFA-compensated, ASE accumulates)");
  std::printf("  %10s %14s %14s\n", "spans", "PAM-2 SER", "PAM-4 SER");
  for (const int spans : {1, 4, 16, 32, 64}) {
    std::printf("  %10d %14.5f %14.5f\n", spans,
                symbol_error_rate(core::line_coding::pam2, 0.0, spans, 13),
                symbol_error_rate(core::line_coding::pam4, 0.0, spans, 13));
  }
  note("  (the simulated WAN hops of a few hundred km sit comfortably in");
  note("   the error-free region, justifying the clean-link abstraction)");

  std::printf("\n");
  return 0;
}
