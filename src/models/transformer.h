// Transformer model configurations used in the paper's evaluation (§5.3):
// the T5 encoder-decoder family (Table 1) and decoder-only LMs of 3B/64B/
// 136B parameters (Table 2, Figs. 10 and 12).
//
// Parameter counts follow the standard dense-Transformer accounting:
//   per layer: attention 4·d² + feed-forward 2·d·d_ff
//   embeddings: vocab·d (shared in/out)
// Training FLOPs use the 6·N·tokens rule (fwd 2N + bwd 4N).
//
// `effective_mfu` is the calibration knob that absorbs everything our
// simulator does not model (exact batch/sequence geometry, kernel quality,
// remat policy); each config in transformer.cpp records its calibrated
// value next to the paper throughput it reproduces, and docs/BENCHMARKS.md
// gives the Table 1 gate that checks them.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"

namespace pw::models {

struct TransformerConfig {
  std::string name;
  std::int64_t num_layers = 12;
  std::int64_t d_model = 768;
  std::int64_t d_ff = 3072;
  std::int64_t num_heads = 12;
  // Total attention inner width (num_heads x d_kv). Equals d_model for most
  // models, but T5-3B/11B widen it independently.
  std::int64_t d_attn = 768;
  std::int64_t vocab_size = 32128;
  bool encoder_decoder = false;  // T5-style if true; decoder-only otherwise

  // Training geometry.
  std::int64_t tokens_per_batch = 1 << 19;  // global tokens per step
  double effective_mfu = 0.30;

  std::int64_t ParamsPerLayer() const {
    // Self-attention QKVO + feed-forward; encoder-decoder stacks amortize
    // the decoder's cross-attention as +2·d·d_attn per layer on average.
    const std::int64_t attn = 4 * d_model * d_attn;
    const std::int64_t cross = encoder_decoder ? 2 * d_model * d_attn : 0;
    return attn + cross + 2 * d_model * d_ff;
  }
  std::int64_t EmbeddingParams() const { return vocab_size * d_model; }
  std::int64_t TotalParams() const {
    return num_layers * ParamsPerLayer() + EmbeddingParams();
  }
  // Training FLOPs for one step over the global batch.
  double FlopsPerStep() const {
    return 6.0 * static_cast<double>(TotalParams()) *
           static_cast<double>(tokens_per_batch);
  }
  // Gradient bytes exchanged per step (bf16 gradients).
  Bytes GradientBytes() const { return 2 * TotalParams(); }
  // Activation bytes flowing between consecutive layers for `tokens` tokens.
  Bytes ActivationBytes(std::int64_t tokens) const { return 2 * tokens * d_model; }

  // --- Inference accounting (serving regime, docs/SERVING.md) ---
  // Forward-pass FLOPs to process one token (prefill or decode): 2 per
  // parameter, the forward third of the 6N training rule.
  double InferenceFlopsPerToken() const {
    return 2.0 * static_cast<double>(TotalParams());
  }
  // bf16 K and V rows appended to the cache per token, summed over layers.
  Bytes KvBytesPerToken() const { return 2 * 2 * num_layers * d_attn; }
  // bf16 weights; a decode iteration streams them once from HBM regardless
  // of batch size, which is what makes decode memory-bound.
  Bytes WeightBytes() const { return 2 * TotalParams(); }

  // --- Table 1: T5 configurations (Raffel et al. 2019) ---
  static TransformerConfig T5Base();
  static TransformerConfig T5Large();
  static TransformerConfig T5_3B();
  static TransformerConfig T5_11B();

  // --- Table 2 / Figs. 10, 12: decoder-only LMs ---
  // 62 layers, d=2048, d_ff=8192 => 3B (paper §5.3).
  static TransformerConfig Decoder3B();
  static TransformerConfig Decoder64B();
  static TransformerConfig Decoder136B();
};

}  // namespace pw::models
