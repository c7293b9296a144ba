#include <algorithm>
#include <cmath>
#include <cstring>

#include "predictor/dataset.h"
#include "predictor/engagement_state.h"
#include "probes.h"

namespace lxbench {

using namespace lingxi;

namespace {

constexpr std::size_t kRowWidth = predictor::kChannels * predictor::kHistoryLen;

/// The stall-exit net written out plainly from its weights: per-channel
/// conv branch + ReLU, concat, fc1 + ReLU, fc2, softmax. Independent of the
/// program's forward code, so it stays a valid reference when that code
/// changes shape (sparsity skips, narrower weights, other kernels).
class ReferenceNet {
 public:
  /// False when the weights do not have the documented layer shapes.
  bool load(const std::vector<const nn::Tensor*>& w) {
    if (w.size() != 2 * predictor::kChannels + 4) return false;
    branches_ = predictor::kChannels;
    const nn::Tensor& conv_w = *w[0];
    if (conv_w.rank() != 3 || conv_w.dim(1) != 1) return false;
    conv_out_ = conv_w.dim(0);
    kernel_ = conv_w.dim(2);
    if (kernel_ > predictor::kHistoryLen) return false;
    steps_ = predictor::kHistoryLen - kernel_ + 1;
    for (std::size_t c = 0; c < branches_; ++c) {
      if (!w[2 * c]->same_shape(conv_w) || w[2 * c + 1]->size() != conv_out_) return false;
    }
    fc1_w_ = w[2 * branches_];
    fc1_b_ = w[2 * branches_ + 1];
    fc2_w_ = w[2 * branches_ + 2];
    fc2_b_ = w[2 * branches_ + 3];
    merged_ = branches_ * conv_out_ * steps_;
    if (fc1_w_->rank() != 2 || fc1_w_->dim(1) != merged_) return false;
    hidden_ = fc1_w_->dim(0);
    if (fc1_b_->size() != hidden_) return false;
    if (fc2_w_->rank() != 2 || fc2_w_->dim(0) != 2 || fc2_w_->dim(1) != hidden_) return false;
    if (fc2_b_->size() != 2) return false;
    weights_ = w;
    return true;
  }

  /// P(exit) of one flattened 5x8 feature row.
  double predict(const double* x) const {
    std::vector<double> merged(merged_);
    for (std::size_t c = 0; c < branches_; ++c) {
      const nn::Tensor& cw = *weights_[2 * c];
      const nn::Tensor& cb = *weights_[2 * c + 1];
      const double* xc = x + c * predictor::kHistoryLen;
      for (std::size_t o = 0; o < conv_out_; ++o) {
        for (std::size_t t = 0; t < steps_; ++t) {
          double acc = cb[o];
          for (std::size_t k = 0; k < kernel_; ++k) acc += cw.at(o, 0, k) * xc[t + k];
          merged[(c * conv_out_ + o) * steps_ + t] = std::max(acc, 0.0);
        }
      }
    }
    std::vector<double> hidden(hidden_);
    for (std::size_t h = 0; h < hidden_; ++h) {
      double acc = (*fc1_b_)[h];
      for (std::size_t i = 0; i < merged_; ++i) acc += fc1_w_->at(h, i) * merged[i];
      hidden[h] = std::max(acc, 0.0);
    }
    double logit[2];
    for (std::size_t j = 0; j < 2; ++j) {
      double acc = (*fc2_b_)[j];
      for (std::size_t h = 0; h < hidden_; ++h) acc += fc2_w_->at(j, h) * hidden[h];
      logit[j] = acc;
    }
    const double top = std::max(logit[0], logit[1]);
    const double e0 = std::exp(logit[0] - top);
    const double e1 = std::exp(logit[1] - top);
    return e1 / (e0 + e1);
  }

  double fc1_macs() const { return static_cast<double>(hidden_ * merged_); }

 private:
  std::vector<const nn::Tensor*> weights_;
  const nn::Tensor* fc1_w_ = nullptr;
  const nn::Tensor* fc1_b_ = nullptr;
  const nn::Tensor* fc2_w_ = nullptr;
  const nn::Tensor* fc2_b_ = nullptr;
  std::size_t branches_ = 0, conv_out_ = 0, kernel_ = 0, steps_ = 0;
  std::size_t merged_ = 0, hidden_ = 0;
};

/// Feature rows: real engagement matrices harvested from simulated stall
/// sessions, topped up with uniform random rows.
std::vector<double> feature_rows(std::uint64_t seed, std::size_t rows) {
  Rng rng(seed);
  predictor::DatasetGenConfig gen;
  gen.users = 4;
  gen.sessions_per_user = 6;
  gen.filter = predictor::DatasetFilter::kStall;
  const predictor::Dataset data = predictor::generate_dataset(gen, rng);
  std::vector<double> out;
  out.reserve(rows * kRowWidth);
  for (const auto& sample : data.samples) {
    if (out.size() / kRowWidth >= rows / 2) break;
    out.insert(out.end(), sample.features.data(), sample.features.data() + kRowWidth);
  }
  while (out.size() < rows * kRowWidth) out.push_back(rng.uniform(0.0, 1.5));
  return out;
}

/// Median over repetitions of the per-row cost of predict_batch at `rows`.
double ns_per_row(const predictor::StallExitNet& net, const std::vector<double>& features,
                  std::size_t rows, std::size_t calls) {
  predictor::StallExitNet::BatchWorkspace ws;
  std::vector<double> out(rows);
  const nn::ConstBatchView view(features.data(), rows, kRowWidth);
  net.predict_batch(view, out.data(), &ws);  // size the workspace
  std::vector<double> samples;
  double sink = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    const double t0 = wall_seconds();
    for (std::size_t i = 0; i < calls; ++i) {
      net.predict_batch(view, out.data(), &ws);
      sink += out[0];
    }
    samples.push_back((wall_seconds() - t0) * 1e9 / static_cast<double>(calls * rows));
  }
  // Keeps the timed calls observable to the optimizer.
  if (std::isnan(sink)) samples.push_back(0.0);
  return median(samples);
}

}  // namespace

ExitNetProbe probe_exit_net(const predictor::StallExitNet& net, std::uint64_t seed) {
  ExitNetProbe out;
  constexpr std::size_t kRows = 192;
  const std::vector<double> features = feature_rows(seed, kRows);
  out.rows = kRows;

  std::vector<double> batched(kRows);
  net.predict_batch(nn::ConstBatchView(features.data(), kRows, kRowWidth), batched.data());
  out.batch_bitwise = true;
  for (std::size_t r = 0; r < kRows; ++r) {
    double single = 0.0;
    net.predict_batch(nn::ConstBatchView(features.data() + r * kRowWidth, 1, kRowWidth),
                      &single);
    out.batch_bitwise =
        out.batch_bitwise && std::memcmp(&single, &batched[r], sizeof(double)) == 0;
  }

  const std::vector<const nn::Tensor*> weights = net.weights();
  ReferenceNet reference;
  out.shapes_ok = reference.load(weights);
  if (out.shapes_ok) {
    for (std::size_t r = 0; r < kRows; ++r) {
      const double diff =
          std::fabs(reference.predict(features.data() + r * kRowWidth) - batched[r]);
      if (std::isnan(diff) || diff > out.max_ref_diff) out.max_ref_diff = diff;
    }
    out.reference_ok = out.max_ref_diff <= kReferenceTolerance;
    out.fc1_macs_per_row = reference.fc1_macs();
  }
  for (const nn::Tensor* t : weights) {
    out.weight_bytes_per_forward += static_cast<double>(t->size() * sizeof(*t->data()));
  }

  out.ns_per_row_b1 = ns_per_row(net, features, 1, 200);
  out.ns_per_row_b64 = ns_per_row(net, features, 64, 8);
  return out;
}

}  // namespace lxbench
