#include "core/photonic_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/scoped_timer.hpp"
#include "photonics/kernels.hpp"
#include "protocol/codec.hpp"

namespace onfiber::core {

namespace {

// Lazily resolved wall-clock stage histograms (host-side telemetry;
// never feeds the simulation).
obs::histogram& process_wall_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("engine.process_wall_s");
  return h;
}
obs::histogram& batch_wall_hist() {
  static obs::histogram& h =
      obs::registry::global().get_histogram("engine.batch_wall_s");
  return h;
}

/// Writable view of `out_len` result bytes at the header's result offset.
/// Engines size their own results (the client cannot always know the
/// output length of every chain stage); empty if it does not fit.
[[nodiscard]] std::span<std::uint8_t> result_span(
    net::packet& pkt, const proto::compute_header& h, std::size_t out_len) {
  const std::size_t begin = proto::compute_header_bytes + h.result_offset;
  if (out_len == 0 || begin + out_len > pkt.payload.size()) return {};
  return std::span<std::uint8_t>(pkt.payload).subspan(begin, out_len);
}

}  // namespace

photonic_engine::photonic_engine(engine_config config, std::uint64_t seed,
                                 phot::energy_ledger* ledger,
                                 phot::energy_costs costs)
    : config_(config),
      upstream_encoder_(config.dot, seed ^ 0xf00d, nullptr, costs),
      matcher_(config.match, seed ^ 0xbeef, ledger, costs),
      upstream_phase_encoder_(config.match, seed ^ 0xcafe, nullptr, costs),
      nonlinear_(config.nonlinear, seed ^ 0xd00d, ledger, costs),
      gemm_(config.dot, seed, ledger, costs),
      ledger_(ledger),
      costs_(costs) {}

void photonic_engine::configure_gemv(gemv_task task) {
  if (task.weights.rows == 0 || task.weights.cols == 0) {
    throw std::invalid_argument("photonic_engine: empty GEMV task");
  }
  if (!task.bias.empty() && task.bias.size() != task.weights.rows) {
    throw std::invalid_argument("photonic_engine: bias/rows mismatch");
  }
  gemv_ = std::move(task);
}

void photonic_engine::configure_match(match_task task) {
  if (task.patterns.empty()) {
    throw std::invalid_argument("photonic_engine: no patterns");
  }
  for (const auto& p : task.patterns) {
    if (p.empty()) {
      throw std::invalid_argument("photonic_engine: empty pattern");
    }
  }
  if (task.patterns.size() >= match_no_hit) {
    throw std::invalid_argument("photonic_engine: too many patterns");
  }
  match_ = std::move(task);
}

void photonic_engine::configure_dnn(dnn_task task) {
  if (task.layers.empty()) {
    throw std::invalid_argument("photonic_engine: empty DNN task");
  }
  for (std::size_t l = 1; l < task.layers.size(); ++l) {
    if (task.layers[l].weights.cols != task.layers[l - 1].weights.rows) {
      throw std::invalid_argument("photonic_engine: DNN layer shape chain");
    }
  }
  dnn_ = std::move(task);
}

void photonic_engine::clear_tasks() {
  gemv_.reset();
  match_.reset();
  dnn_.reset();
}

bool photonic_engine::supports(proto::primitive_id p) const {
  switch (p) {
    case proto::primitive_id::p1_dot_product:
      return gemv_.has_value();
    case proto::primitive_id::p2_pattern_match:
      return match_.has_value();
    case proto::primitive_id::p3_nonlinear:
      return true;  // the nonlinear unit is always present
    case proto::primitive_id::p1_p3_dnn:
      return dnn_.has_value();
    case proto::primitive_id::none:
      return false;
  }
  return false;
}

std::vector<proto::primitive_id> photonic_engine::configured() const {
  std::vector<proto::primitive_id> out;
  if (gemv_) out.push_back(proto::primitive_id::p1_dot_product);
  if (match_) out.push_back(proto::primitive_id::p2_pattern_match);
  out.push_back(proto::primitive_id::p3_nonlinear);
  if (dnn_) out.push_back(proto::primitive_id::p1_p3_dnn);
  return out;
}

phot::gemm_result photonic_engine::analog_gemm(const phot::matrix& w,
                                               std::span<const double> xs,
                                               engine_report& report) {
  const std::size_t cols = w.cols;
  const std::size_t batch = xs.size() / cols;  // callers validate the shape
  phot::gemm_result out;

  if (config_.mode == compute_mode::on_fiber) {
    // On-fiber path: each sample's rails exist as optical waveforms
    // (encoded upstream; reconstruction here is ledger-free), produced in
    // sample order on the continuing upstream-encoder streams.
    std::vector<phot::waveform> wave_p(batch);
    std::vector<phot::waveform> wave_n(batch);
    std::vector<double> xp, xn;
    for (std::size_t s = 0; s < batch; ++s) {
      phot::split_rails(xs.subspan(s * cols, cols), xp, xn);
      wave_p[s] = upstream_encoder_.encode_to_optical(xp);
      wave_n[s] = upstream_encoder_.encode_to_optical(xn);
    }
    const double ref_mw =
        config_.dot.laser.power_mw *
        phot::db_to_ratio(-config_.dot.modulator.insertion_loss_db);
    out = gemm_.gemm_optical(w, wave_p, wave_n, ref_mw);
  } else {
    // OEO path: every sample was digitized by the receive ADC (cols
    // conversions each) and is re-encoded through the a-side DAC inside
    // every pass: four per row per sample.
    report.input_conversions += xs.size();
    if (ledger_ != nullptr) {
      ledger_->charge("adc", costs_.adc_conversion_j *
                                 static_cast<double>(xs.size()),
                      xs.size());
    }
    out = gemm_.gemm_signed(w, xs);
    report.input_conversions += 4 * cols * w.rows * batch;
  }
  report.optical_symbols += out.symbols;
  report.compute_latency_s += out.latency_s;
  return out;
}

std::vector<double> photonic_engine::pool_samples(
    std::span<const pooled_pkt> group, std::size_t cols,
    bool signed_first_stage) {
  std::vector<double> xs;
  for (const pooled_pkt& e : group) {
    const auto input = proto::compute_input(*e.pkt, e.h);
    const bool signed_input = signed_first_stage && e.h.hops == 0;
    for (std::size_t b = 0; b < e.h.batch; ++b) {
      const auto sample = input.subspan(b * cols, cols);
      const std::vector<double> x = signed_input
                                        ? proto::decode_signed_vector(sample)
                                        : proto::decode_unit_vector(sample);
      xs.insert(xs.end(), x.begin(), x.end());
    }
  }
  return xs;
}

engine_report photonic_engine::pooled_gemv(std::span<pooled_pkt> group) {
  const phot::matrix& w = gemv_->weights;
  const std::size_t rows = w.rows;
  const double scale = std::max<double>(1.0, static_cast<double>(w.cols));
  engine_report report;
  // Chain codec convention: first-stage inputs and final results use the
  // signed encoding the client chose; intermediate stage values travel
  // in the unit [0,1] encoding.
  const phot::gemm_result y =
      analog_gemm(w, pool_samples(group, w.cols, /*signed_first_stage=*/true),
                  report);

  std::size_t s = 0;  // pooled sample index
  for (pooled_pkt& e : group) {
    const std::size_t len = rows * e.h.batch;
    const auto result_region = result_span(*e.pkt, e.h, len);
    const bool chained_output = e.h.has_more_stages();
    for (std::size_t b = 0; b < e.h.batch; ++b, ++s) {
      for (std::size_t r = 0; r < rows; ++r) {
        double v = y.values[s * rows + r];
        if (!gemv_->bias.empty()) v += gemv_->bias[r];
        if (gemv_->relu_output && v < 0.0) v = 0.0;
        result_region[b * rows + r] = chained_output
                                          ? proto::encode_unit_u8(v / scale)
                                          : proto::encode_signed_u8(v / scale);
      }
    }
    apply_postlude(*e.pkt, e.h, static_cast<std::uint16_t>(len));
    report.result_bytes =
        static_cast<std::uint16_t>(report.result_bytes + len);
  }
  report.computed = true;
  return report;
}

engine_report photonic_engine::pooled_dnn(std::span<pooled_pkt> group) {
  const std::size_t in_dim = dnn_->layers.front().weights.cols;
  const std::size_t out_dim = dnn_->layers.back().weights.rows;
  const double full_scale_mw = config_.dot.laser.power_mw;
  engine_report report;
  // DNN inputs are always unit-encoded.
  std::vector<double> acts =
      pool_samples(group, in_dim, /*signed_first_stage=*/false);
  const std::size_t total = acts.size() / in_dim;

  // Layer-major: each layer is one GEMM over every pooled sample. Inside
  // the engine the analog signal never leaves the chip in on-fiber mode
  // (single-chip photonic DNN [9]); in OEO mode every layer pays the
  // conversion boundary.
  for (const photonic_layer& layer : dnn_->layers) {
    const phot::gemm_result z = analog_gemm(layer.weights, acts, report);
    const std::size_t dim = layer.weights.rows;
    acts.assign(total * dim, 0.0);
    for (std::size_t s = 0; s < total; ++s) {
      for (std::size_t i = 0; i < dim; ++i) {
        double v = z.values[s * dim + i];
        if (!layer.bias.empty()) v += layer.bias[i];
        if (layer.activation) {
          // Map pre-activations onto the P3 unit's optical dynamic range
          // with the layer's fixed calibration scale (the one the model
          // trained with), then run each through the electro-optic
          // nonlinearity. Negative pre-activations carry no optical
          // power.
          const double u = std::clamp(v / layer.activation_scale, 0.0, 1.0);
          acts[s * dim + i] = nonlinear_.activate(u, full_scale_mw);
        } else {
          acts[s * dim + i] = v;
        }
      }
      if (layer.activation) {
        report.compute_latency_s +=
            static_cast<double>(dim) / config_.nonlinear.symbol_rate_hz;
        report.optical_symbols += dim;
      }
    }
  }

  // Per-sample result: argmax class byte + logits normalized by
  // max |logit|.
  std::size_t s = 0;  // pooled sample index
  for (pooled_pkt& e : group) {
    const std::size_t len = (1 + out_dim) * e.h.batch;
    const auto result_region = result_span(*e.pkt, e.h, len);
    for (std::size_t b = 0; b < e.h.batch; ++b, ++s) {
      const double* act = acts.data() + s * out_dim;
      double amax = 1e-9;
      for (std::size_t i = 0; i < out_dim; ++i) {
        amax = std::max(amax, std::abs(act[i]));
      }
      std::size_t best = 0;
      for (std::size_t i = 1; i < out_dim; ++i) {
        if (act[i] > act[best]) best = i;
      }
      const std::size_t base = b * (1 + out_dim);
      result_region[base] = static_cast<std::uint8_t>(best);
      for (std::size_t i = 0; i < out_dim; ++i) {
        result_region[base + 1 + i] = proto::encode_signed_u8(act[i] / amax);
      }
    }
    apply_postlude(*e.pkt, e.h, static_cast<std::uint16_t>(len));
    report.result_bytes =
        static_cast<std::uint16_t>(report.result_bytes + len);
  }
  report.computed = true;
  return report;
}

engine_report photonic_engine::run_match(proto::compute_header h,
                                         net::packet& pkt) {
  engine_report report;
  const auto input = proto::compute_input(pkt, h);
  const auto result_region = result_span(pkt, h, 1);

  const std::vector<std::uint8_t> bits = phot::bytes_to_bits(input);
  const bool optical = config_.mode == compute_mode::on_fiber;

  // On-fiber: the word exists optically once (pilot-first BPSK).
  phot::waveform wave;
  if (optical) {
    wave = upstream_phase_encoder_.encode_bits_to_optical(bits);
  } else {
    // Receive ADC digitized the word before matching.
    report.input_conversions += bits.size();
    if (ledger_ != nullptr) {
      ledger_->charge("adc", costs_.adc_conversion_j *
                                 static_cast<double>(bits.size()),
                      bits.size());
    }
  }

  std::uint8_t hit = match_no_hit;
  for (std::size_t pi = 0; pi < match_->patterns.size(); ++pi) {
    const auto& pattern = match_->patterns[pi];
    if (pattern.size() != bits.size()) continue;
    phot::match_result m;
    if (optical) {
      m = matcher_.match_optical(wave, pattern);
    } else {
      // OEO: each trial re-drives the data phase modulator from digital.
      report.input_conversions += bits.size();
      if (ledger_ != nullptr) {
        ledger_->charge("dac", costs_.dac_conversion_j *
                                   static_cast<double>(bits.size()),
                        bits.size());
      }
      m = matcher_.match_ternary(bits, pattern);
    }
    report.compute_latency_s += m.latency_s;
    report.optical_symbols += m.symbols;
    if (m.matched) {
      hit = static_cast<std::uint8_t>(pi);
      break;
    }
  }
  result_region[0] = hit;
  report.match_index = hit;
  report.computed = true;
  report.result_bytes = 1;
  apply_postlude(pkt, h, report.result_bytes);
  return report;
}

engine_report photonic_engine::run_nonlinear(proto::compute_header h,
                                             net::packet& pkt) {
  engine_report report;
  const auto input = proto::compute_input(pkt, h);
  const auto result_region = result_span(pkt, h, input.size());

  const std::vector<double> x = proto::decode_unit_vector(input);
  const double full_scale_mw = config_.dot.laser.power_mw;
  const bool optical = config_.mode == compute_mode::on_fiber;

  if (!optical) {
    // ADC-in + DAC re-encode per element.
    report.input_conversions += 2 * x.size();
    if (ledger_ != nullptr) {
      ledger_->charge("adc", costs_.adc_conversion_j *
                                 static_cast<double>(x.size()),
                      x.size());
      ledger_->charge("dac", costs_.dac_conversion_j *
                                 static_cast<double>(x.size()),
                      x.size());
    }
  }
  // Result readout digitizes each activated sample in both modes.
  report.input_conversions += x.size();
  if (ledger_ != nullptr) {
    ledger_->charge("adc", costs_.adc_conversion_j *
                               static_cast<double>(x.size()),
                    x.size());
  }

  for (std::size_t i = 0; i < x.size(); ++i) {
    const double y = nonlinear_.activate(x[i], full_scale_mw);
    result_region[i] = proto::encode_unit_u8(y);
  }
  report.optical_symbols += x.size();
  report.compute_latency_s +=
      static_cast<double>(x.size()) / config_.nonlinear.symbol_rate_hz +
      config_.dot.fixed_latency_s;
  report.computed = true;
  report.result_bytes = static_cast<std::uint16_t>(x.size());
  apply_postlude(pkt, h, report.result_bytes);
  return report;
}

engine_report photonic_engine::process(net::packet& pkt) {
  const obs::scoped_timer timer(process_wall_hist());
  const auto h = checked_header(pkt);
  if (!h) return {};
  pooled_pkt one{&pkt, *h};
  switch (h->primitive) {
    case proto::primitive_id::p1_dot_product:
      return pooled_gemv({&one, 1});
    case proto::primitive_id::p2_pattern_match:
      return run_match(*h, pkt);
    case proto::primitive_id::p3_nonlinear:
      return run_nonlinear(*h, pkt);
    case proto::primitive_id::p1_p3_dnn:
      return pooled_dnn({&one, 1});
    case proto::primitive_id::none:
      break;
  }
  return {};
}

void photonic_engine::apply_postlude(net::packet& pkt,
                                     proto::compute_header& h,
                                     std::uint16_t result_bytes) {
  h.hops = static_cast<std::uint8_t>(h.hops + 1);
  h.result_length = result_bytes;
  if (h.has_more_stages()) {
    // Distributed chain (§5): hand off to the next stage — the result
    // becomes its input and the packet keeps routing by the new
    // primitive until a capable transponder is crossed.
    h.advance_stage(result_bytes);
  } else {
    h.flags |= proto::flag_has_result;
  }
  rewrite_compute_header(pkt, h);
}

std::optional<proto::compute_header> photonic_engine::checked_header(
    const net::packet& pkt) const {
  auto h = proto::peek_compute_header(pkt);
  if (!h || h->has_result() || !supports(h->primitive)) return std::nullopt;
  const auto input = proto::compute_input(pkt, *h);
  const std::size_t batch = h->batch;

  // Does a result region of `len` bytes fit at the header's offset?
  const auto result_fits = [&](std::size_t len) {
    const std::size_t begin = proto::compute_header_bytes + h->result_offset;
    return len > 0 && begin + len <= pkt.payload.size();
  };

  bool ok = false;
  switch (h->primitive) {
    case proto::primitive_id::p1_dot_product:
      ok = batch > 0 && input.size() == gemv_->weights.cols * batch &&
           result_fits(gemv_->weights.rows * batch);
      break;
    case proto::primitive_id::p2_pattern_match:
      ok = !input.empty() && result_fits(1);
      break;
    case proto::primitive_id::p3_nonlinear:
      ok = !input.empty() && result_fits(input.size());
      break;
    case proto::primitive_id::p1_p3_dnn:
      ok = batch > 0 &&
           input.size() == dnn_->layers.front().weights.cols * batch &&
           result_fits((1 + dnn_->layers.back().weights.rows) * batch);
      break;
    case proto::primitive_id::none:
      break;
  }
  return ok ? h : std::nullopt;
}

bool photonic_engine::can_process(const net::packet& pkt) const {
  return checked_header(pkt).has_value();
}

batch_report photonic_engine::process_batch(
    std::span<net::packet* const> pkts) {
  const obs::scoped_timer timer(batch_wall_hist());
  batch_report out;
  out.computed.assign(pkts.size(), false);

  const auto absorb = [&out](const engine_report& r) {
    out.compute_latency_s += r.compute_latency_s;
    out.input_conversions += r.input_conversions;
    out.optical_symbols += r.optical_symbols;
  };

  // Admission: pool P1 packets and DNN packets; everything else (and
  // anything validation rejects) runs through process() singly. Pooled
  // packets cannot fail once admitted.
  std::vector<pooled_pkt> p1_group, dnn_group;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    net::packet& pkt = *pkts[i];
    const auto h = checked_header(pkt);
    const bool p1 = h && h->primitive == proto::primitive_id::p1_dot_product;
    const bool dnn = h && h->primitive == proto::primitive_id::p1_p3_dnn;
    if (p1 || dnn) {
      (p1 ? p1_group : dnn_group).push_back(pooled_pkt{&pkt, *h});
    } else {
      const engine_report r = process(pkt);
      if (!r.computed) continue;
      absorb(r);
    }
    out.computed[i] = true;
    ++out.computed_packets;
  }

  if (!p1_group.empty()) absorb(pooled_gemv(p1_group));
  if (!dnn_group.empty()) absorb(pooled_dnn(dnn_group));
  return out;
}

bool photonic_engine::detect_preamble(std::span<const phot::field> wave) {
  if (wave.size() != proto::optical_preamble_bits.size() + 1) return false;
  std::vector<phot::tbit> pattern;
  pattern.reserve(proto::optical_preamble_bits.size());
  for (std::uint8_t b : proto::optical_preamble_bits) {
    pattern.push_back(b ? phot::tbit::one : phot::tbit::zero);
  }
  return matcher_.match_optical(wave, pattern).matched;
}

phot::waveform photonic_engine::encode_preamble() {
  const std::vector<std::uint8_t> bits(proto::optical_preamble_bits.begin(),
                                       proto::optical_preamble_bits.end());
  return matcher_.encode_bits_to_optical(bits);
}

}  // namespace onfiber::core
