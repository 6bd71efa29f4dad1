#include "fl/trainer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "aggregators/sharded.h"
#include "comm/stats.h"
#include "comm/wire.h"
#include "common/gradient_matrix.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/serial.h"
#include "core/filters.h"
#include "core/signguard.h"
#include "fl/client.h"
#include "nn/optimizer.h"
#include "obs/trace.h"

namespace signguard::fl {

Trainer::Trainer(const data::TrainTest& data, ModelFactory model_factory,
                 TrainerConfig cfg)
    : data_(data), model_factory_(std::move(model_factory)), cfg_(cfg) {
  // Loud validation in every build type: a degenerate configuration must
  // fail at construction, not crash (or silently misbehave) mid-round.
  if (cfg_.n_clients == 0)
    throw std::invalid_argument("TrainerConfig: n_clients must be > 0");
  if (!(cfg_.byzantine_frac >= 0.0 && cfg_.byzantine_frac < 0.5))
    throw std::invalid_argument(
        "TrainerConfig: byzantine_frac must be in [0, 0.5); a Byzantine "
        "majority (up to m == n) is outside the paper's threat model");
  if (!(cfg_.participation > 0.0 && cfg_.participation <= 1.0))
    throw std::invalid_argument(
        "TrainerConfig: participation must be in (0, 1]; a round that "
        "samples zero clients cannot make progress");
  if (!(cfg_.dropout_prob >= 0.0 && cfg_.dropout_prob <= 1.0) ||
      !(cfg_.straggler_prob >= 0.0 && cfg_.straggler_prob <= 1.0))
    throw std::invalid_argument(
        "TrainerConfig: dropout_prob / straggler_prob must be in [0, 1]");
  if (cfg_.rounds == 0)
    throw std::invalid_argument("TrainerConfig: rounds must be > 0");
  if (cfg_.batch_size == 0)
    throw std::invalid_argument("TrainerConfig: batch_size must be > 0");
  if (cfg_.eval_every == 0)
    throw std::invalid_argument("TrainerConfig: eval_every must be > 0");
  cfg_.chaos.validate();
  if (cfg_.checkpoint.active() && cfg_.checkpoint.every == 0)
    throw std::invalid_argument(
        "TrainerConfig: checkpoint.every must be >= 1 when checkpointing");
  // A degenerate compression spec must also fail here, not mid-round:
  // building the codec is cheap and runs every validation make_codec has.
  comm::make_codec(cfg_.compression);
  n_byz_ = static_cast<std::size_t>(
      std::round(cfg_.byzantine_frac * double(cfg_.n_clients)));
}

namespace {

// Identity of a configuration for the checkpoint guard: every field that
// shapes the run, integers as u64 and doubles by their exact bit pattern
// (printing a double would round e.g. lr = 1e-6 and 1.4e-6 together). A
// checkpoint written under a different configuration is refused —
// resuming it would silently diverge.
std::uint64_t config_hash(const TrainerConfig& c, const std::string& gar,
                          const std::string& attack) {
  common::ByteWriter w;
  for (const std::uint64_t v :
       {std::uint64_t(c.n_clients), std::uint64_t(c.rounds),
        std::uint64_t(c.batch_size), std::uint64_t(c.eval_every),
        std::uint64_t(c.eval_max_samples), std::uint64_t(c.noniid),
        std::uint64_t(c.compression.codec), std::uint64_t(c.compression.chunk),
        std::uint64_t(c.quorum.min_participants),
        std::uint64_t(c.quorum.min_survivors),
        std::uint64_t(c.quorum.action), std::uint64_t(c.seed)})
    w.u64(v);
  for (const double v :
       {c.byzantine_frac, c.lr, c.momentum, c.client_momentum,
        c.weight_decay, c.noniid_s, c.participation, c.dropout_prob,
        c.straggler_prob, c.compression.k_fraction, c.chaos.deadline_ms,
        c.chaos.churn_leave_prob, c.chaos.churn_mean_absence})
    w.f64(v);
  w.str(c.chaos.profile.name);
  w.str(gar);
  w.str(attack);
  return common::fnv1a64(w.bytes());
}

// Partitions the training data over the clients and seeds each one. A
// client with an empty shard could not form a batch, so a cohort the
// training set cannot cover is a configuration error.
std::vector<Client> make_clients(const TrainerConfig& cfg,
                                 const data::Dataset& train, Rng& rng) {
  data::ClientIndices shards =
      cfg.noniid
          ? data::noniid_partition(train, cfg.n_clients, cfg.noniid_s, rng)
          : data::iid_partition(train.size(), cfg.n_clients, rng);
  std::vector<Client> clients;
  clients.reserve(cfg.n_clients);
  for (std::size_t i = 0; i < cfg.n_clients; ++i) {
    if (shards[i].empty())
      throw std::invalid_argument(
          "TrainerConfig: n_clients = " + std::to_string(cfg.n_clients) +
          " leaves client " + std::to_string(i) +
          " an empty shard of the " + std::to_string(train.size()) +
          "-sample training set");
    clients.emplace_back(&train, std::move(shards[i]), rng.split().engine()());
  }
  return clients;
}

// Checkpoint adaptor in the serialize_state/restore_state shape
// common::ByteIo nests: the caller's extra blob.
struct ExtraState {
  const CheckpointConfig& cfg;
  void serialize_state(common::ByteWriter& w) const {
    if (cfg.save_extra) cfg.save_extra(w);
  }
  void restore_state(common::ByteReader& r) const {
    if (cfg.load_extra) cfg.load_extra(r);
  }
};

// ---- One round's state ----------------------------------------------------
// Everything a synchronous round produces, filled in stage order: the
// RoundObservation the observer receives — each tally filled by the stage
// that incurs it; `participants` / `byzantine` are the rows (and
// Byzantine rows among them) that reach the aggregator, zero on a round
// that ends before craft — plus the round's working set. Built fresh
// every round; nothing in it outlives the round (the cross-round state
// lives in RoundPipeline and is what the checkpoint carries).
struct RoundState : RoundObservation {
  // select / chaos_sift: the participants still sending this round —
  // Byzantine ids lead, so their rows lead the round matrix — and the
  // benign clients that train but whose update never arrives.
  std::vector<std::size_t> byz_sel, benign_sel, benign_late;
  std::size_t transmitters = 0;  // chaos_sift: post-churn senders
  std::size_t rows_sent = 0;     // uplink stages: rows pushed to the wire
  // aggregate: the applied aggregate (null: nothing applied) and, on a
  // proceeding round, the GAR's trusted set.
  const std::vector<float>* applied = nullptr;
  std::vector<std::size_t> trusted;

  std::size_t m_round() const { return byz_sel.size(); }
  std::size_t n_round() const { return byz_sel.size() + benign_sel.size(); }
  // Clients that train this round: senders plus benign stragglers.
  std::size_t n_work() const { return n_round() + benign_late.size(); }
};

// ---- The round pipeline ---------------------------------------------------
// Owns the run: clients, the rule and global model, seed streams,
// transport buffers and the result accumulators. Each stage function
// advances one RoundState; the driver (run_round below) sequences them and
// opens every stage's obs::StageScope — no stage function opens a scope
// or span itself.
class RoundPipeline {
 public:
  RoundPipeline(const TrainerConfig& cfg, const data::TrainTest& data,
                const ModelFactory& model_factory, std::size_t n_byz,
                attacks::Attack& attack, std::unique_ptr<agg::Aggregator> gar)
      : cfg_(cfg),
        data_(data),
        model_factory_(model_factory),
        attack_(attack),
        n_(cfg.n_clients),
        m_(n_byz),
        rng_(cfg.seed),
        attack_rng_(rng_.split()),
        gar_rng_(rng_.split()),
        clients_(make_clients(cfg, data.train, rng_)),
        participation_rng_(rng_.split()),
        failure_rng_(rng_.split()),
        gar_(std::move(gar)),
        params_(worker_model(0).parameters()),
        optimizer_(cfg.lr, cfg.momentum),
        dim_(params_.size()),
        sg_(dynamic_cast<core::SignGuard*>(gar_.get())),
        sharded_(dynamic_cast<const agg::ShardedAggregator*>(gar_.get())),
        config_hash_(config_hash(cfg, gar_->name(), attack.name())) {
    if (cfg.chaos.active())
      chaos_.emplace(n_, cfg.chaos,
                     common::stream_seed(
                         cfg.seed, common::fnv1a64("signguard.chaos")));
    if (cfg.compression.codec != comm::CodecKind::kNone ||
        static_cast<bool>(cfg.uplink_tamper) || chaos_transport_) {
      codec_ = comm::make_codec(cfg.compression);
      uplink_.resize(n_);
      rejected_.reserve(n_);
      wire_bytes_ = comm::encoded_size(*codec_, dim_);
    }
    wire_filtering_ = codec_ != nullptr &&
                      cfg.compression.codec != comm::CodecKind::kNone &&
                      sg_ != nullptr && sg_->supports_wire_path() &&
                      !cfg.quorum.active();
  }

  TrainingResult result;
  bool chaos_on() const { return chaos_.has_value(); }
  bool transport_on() const { return codec_ != nullptr; }

  // Participating clients this round (full set unless partial
  // participation is configured), then the legacy failure coins.
  // Byzantine clients are those among the sampled set with index < m.
  void select(RoundState& s) {
    attack_.begin_round(s.round, attack_rng_);
    if (cfg_.participation >= 1.0) {
      for (std::size_t i = 0; i < m_; ++i) s.byz_sel.push_back(i);
      for (std::size_t i = m_; i < n_; ++i) s.benign_sel.push_back(i);
    } else {
      const std::size_t k = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::round(cfg_.participation * double(n_))));
      participation_rng_.sample_without_replacement_into(n_, k, sampled_);
      for (const std::size_t i : sampled_)
        (i < m_ ? s.byz_sel : s.benign_sel).push_back(i);
    }
    // Legacy failure injection, drawn sequentially from a dedicated
    // stream so the outcome is a pure function of the seed. The two coins
    // are sequential (see trainer.h): dropout first, straggler only for
    // survivors, so every selected client lands in exactly one state. A
    // dropped client misses the round entirely; a benign straggler still
    // trains (into late_grads_) but its update is discarded; a Byzantine
    // straggler's crafted update simply never reaches the server.
    if (cfg_.dropout_prob <= 0.0 && cfg_.straggler_prob <= 0.0) return;
    const auto sift = [&](std::vector<std::size_t>& sel, bool benign) {
      active_.clear();
      for (const std::size_t i : sel) {
        if (cfg_.dropout_prob > 0.0 &&
            failure_rng_.bernoulli(cfg_.dropout_prob)) {
          ++s.dropped;
        } else if (cfg_.straggler_prob > 0.0 &&
                   failure_rng_.bernoulli(cfg_.straggler_prob)) {
          ++s.stragglers;
          if (benign) s.benign_late.push_back(i);
        } else {
          active_.push_back(i);
        }
      }
      // swap (not move) so both buffers keep their capacity.
      std::swap(sel, active_);
    };
    sift(s.byz_sel, /*benign=*/false);
    sift(s.benign_sel, /*benign=*/true);
  }

  // Chaos sift, layered after the legacy coins: churned clients miss the
  // round entirely; the survivors' uplinks are simulated (latency x
  // retries vs deadline). A late or lost uplink means the client DID
  // train — its state advances exactly like a legacy straggler's — but no
  // update reaches the aggregator. Corrupt arrivals stay active here; the
  // wire decode rejects their mangled bytes.
  void chaos_sift(RoundState& s) {
    double slowest_ms = 0.0;
    bool uplink_missing = false;
    const auto sift = [&](std::vector<std::size_t>& sel, bool benign) {
      active_.clear();
      for (const std::size_t i : sel) {
        if (!chaos_->client_up(i, s.round)) {
          ++s.churned;
          continue;
        }
        const UplinkSim sim = chaos_->simulate_uplink(i, s.round);
        ++s.transmitters;
        s.uplink_attempts += sim.attempts;
        switch (sim.delivery) {
          case UplinkSim::Delivery::kOnTime:
          case UplinkSim::Delivery::kCorrupt:
            // Only delivered uplinks extend the round: a synchronous
            // server closes on what it received, so a lost chain's (or,
            // with no deadline, a late chain's) elapsed time is not on
            // the critical path.
            slowest_ms = std::max(slowest_ms, sim.elapsed_ms);
            active_.push_back(i);
            break;
          case UplinkSim::Delivery::kLate:
            ++s.deadline_misses;
            ++s.stragglers;
            uplink_missing = true;
            if (benign) s.benign_late.push_back(i);
            break;
          case UplinkSim::Delivery::kLost:
            ++s.lost_uplinks;
            uplink_missing = true;
            if (benign) s.benign_late.push_back(i);
            break;
        }
      }
      std::swap(sel, active_);
    };
    sift(s.byz_sel, /*benign=*/false);
    sift(s.benign_sel, /*benign=*/true);
    obs::count(obs::Counter::kRetryAttempts, s.uplink_attempts);
    // The server closes the round at the deadline when anyone is still
    // missing, else at the slowest arrival.
    s.sim_time_ms = (cfg_.chaos.deadline_ms > 0.0 && uplink_missing)
                        ? cfg_.chaos.deadline_ms
                        : slowest_ms;
  }

  // Local training: every participating client writes its gradient
  // straight into a matrix row, in parallel. Byzantine clients fill
  // round_grads_ rows [0, m_round) with their honest-behaviour gradients
  // (craft's raw material, replaced by the crafted rows); benign clients
  // fill rows [m_round, n_round); benign stragglers fill late_grads_.
  // Only the workers that can receive a non-empty chunk need
  // a synced scratch model — and inside an outer parallel region (the
  // sweep engine) the nested loop runs inline on one worker, so a single
  // model suffices. Training runs on every round, so a client's state
  // evolution depends only on its own fate, never on what happened to the
  // others; the round then ends here when no honest gradient can reach
  // the server.
  void client_compute(RoundState& s) {
    const std::size_t m_round = s.m_round(), n_round = s.n_round();
    const std::size_t n_work = s.n_work();
    const std::size_t active_models = std::min(
        common::in_parallel_region() ? 1 : common::thread_count(), n_work);
    for (std::size_t w = 0; w < active_models; ++w)
      worker_model(w).set_parameters(params_);
    round_grads_.resize(n_round, dim_);
    late_grads_.resize(s.benign_late.size(), dim_);
    obs::count(obs::Counter::kDenseBytes, std::uint64_t(n_work) * dim_ * 4);
    const bool flip = attack_.flips_labels();
    common::parallel_chunks(
        n_work, [&](std::size_t begin, std::size_t end, std::size_t worker) {
          nn::Model& wm = worker_models_[worker];
          for (std::size_t t = begin; t < end; ++t) {
            if (t < m_round) {
              clients_[s.byz_sel[t]].compute_gradient_into(
                  round_grads_.row(t), wm, cfg_.batch_size, cfg_.weight_decay,
                  flip, cfg_.client_momentum);
            } else if (t < n_round) {
              clients_[s.benign_sel[t - m_round]].compute_gradient_into(
                  round_grads_.row(t), wm, cfg_.batch_size, cfg_.weight_decay,
                  /*flip_labels=*/false, cfg_.client_momentum);
            } else {
              const std::size_t l = t - n_round;
              clients_[s.benign_late[l]].compute_gradient_into(
                  late_grads_.row(l), wm, cfg_.batch_size, cfg_.weight_decay,
                  /*flip_labels=*/false, cfg_.client_momentum);
            }
          }
        });
    if (s.benign_sel.empty()) s.outcome = RoundOutcome::kSkippedNoHonest;
  }

  // Benign uplinks go through the wire first: what the attacker gets to
  // observe — and what the server aggregates — is the decoded
  // (post-compression) view of every honest gradient. A benign uplink
  // only fails to decode under the tamper hook or a chaos-corrupted
  // arrival; when every one does, nothing trustworthy reached the server
  // and the round is skipped like a fully-dropped one.
  void benign_uplink(RoundState& s) {
    const std::size_t m_round = s.m_round(), n_round = s.n_round();
    rejected_.assign(n_round, 0);
    transport(s.round, m_round, n_round, /*decode_rows=*/true,
              [&](std::size_t t) { return s.benign_sel[t - m_round]; });
    s.rows_sent += n_round - m_round;
    for (std::size_t t = m_round; t < n_round; ++t)
      s.decode_rejects += rejected_[t];
    if (s.decode_rejects == n_round - m_round)
      s.outcome = RoundOutcome::kSkippedNoHonest;
  }

  // The attacker observes the benign rows and the honest Byzantine
  // gradients as borrowed views of round_grads_ — no copies. Rejected
  // uplinks never reached the server, so they are invisible to the
  // (omniscient-but-server-side) attacker too. The crafted rows replace
  // the honest ones in rows [0, m_round) once craft has returned.
  void craft(RoundState& s) {
    const std::size_t m_round = s.m_round(), n_round = s.n_round();
    benign_views_.clear();
    benign_views_.reserve(n_round - m_round - s.decode_rejects);
    for (std::size_t t = m_round; t < n_round; ++t)
      if (!transport_on() || !rejected_[t])
        benign_views_.push_back(round_grads_.row(t));
    std::vector<attacks::GradientView> byz_views(m_round);
    for (std::size_t t = 0; t < m_round; ++t)
      byz_views[t] = round_grads_.row(t);
    attacks::AttackContext actx;
    actx.benign_grads = benign_views_;
    actx.byz_honest_grads = byz_views;
    actx.n_total = n_round - s.decode_rejects;
    actx.n_byzantine = m_round;
    actx.round = s.round;
    actx.rng = &attack_rng_;
    const std::vector<std::vector<float>> malicious = attack_.craft(actx);
    // Loud validation in every build type: a misbehaving user-defined
    // attack must not turn into an out-of-bounds copy into the matrix.
    if (malicious.size() != m_round)
      throw std::invalid_argument(
          "attack '" + attack_.name() + "' crafted " +
          std::to_string(malicious.size()) + " gradients, expected " +
          std::to_string(m_round));
    for (std::size_t i = 0; i < m_round; ++i) {
      if (malicious[i].size() != dim_)
        throw std::invalid_argument(
            "attack '" + attack_.name() + "' crafted gradient " +
            std::to_string(i) + " with dimension " +
            std::to_string(malicious[i].size()) + ", expected " +
            std::to_string(dim_));
      std::copy(malicious[i].begin(), malicious[i].end(),
                round_grads_.row(i).begin());
    }
    s.byzantine = m_round;
    s.participants = n_round;
  }

  // Byzantine uplinks take the same wire as everyone else's: the crafted
  // update is what gets compressed, so defenses face the attack as the
  // codec delivers it. A Byzantine client shipping bytes that do not
  // decode is simply rejected — its slot never reaches the aggregator. On
  // the wire path the crafted rows are validated, never decoded: their
  // floats stay wire-side until (and unless) SignGuard admits them.
  void byzantine_uplink(RoundState& s) {
    const std::size_t m_round = s.m_round(), n_round = s.n_round();
    transport(s.round, 0, m_round, /*decode_rows=*/!wire_filtering_,
              [&](std::size_t t) { return s.byz_sel[t]; });
    s.rows_sent += m_round;
    for (std::size_t t = 0; t < m_round; ++t) s.decode_rejects += rejected_[t];
    if (s.decode_rejects == 0) return;
    // Compact the surviving rows into a prefix (Byzantine rows stay in
    // front, order preserved) so the aggregator sees a dense matrix of
    // exactly the updates that decoded — and their uplink buffers move
    // with them, so buffer t keeps describing row t for the wire path.
    std::size_t w = 0;
    s.byzantine = 0;
    for (std::size_t t = 0; t < n_round; ++t) {
      if (rejected_[t]) continue;
      if (t < m_round) ++s.byzantine;
      if (w != t) {
        const auto src = round_grads_.row(t);
        std::copy(src.begin(), src.end(), round_grads_.row(w).begin());
        std::swap(uplink_[w], uplink_[t]);
      }
      ++w;
    }
    s.participants = w;
    round_grads_.resize(s.participants, dim_);
  }

  // Aggregation and the global update, on one of three paths:
  // quorum-policed (with its degradation chain), compressed-domain
  // SignGuard, or the plain GAR step. uplink_decoded_bytes counts the
  // dense bytes materialized from accepted uplinks: all of them on the
  // decode path, only the trusted set's on the wire path.
  void aggregate(RoundState& s) {
    agg::GarContext gctx;
    gctx.assumed_byzantine = s.byzantine;
    gctx.round = s.round;
    gctx.rng = &gar_rng_;
    s.uplink_decoded_bytes =
        transport_on() ? std::uint64_t(s.participants) * dim_ * 4 : 0;
    if (wire_filtering_) {
      comm::WireRound wr;
      wr.codec = codec_.get();
      wr.uplinks = std::span<const std::vector<std::uint8_t>>(
          uplink_.data(), s.participants);
      wr.d = dim_;
      s.applied = &apply(sg_->aggregate_wire(wr, gctx));
      s.uplink_decoded_bytes = sg_->last_decoded_bytes();
    } else if (!cfg_.quorum.active()) {
      s.applied = &apply(gar_->aggregate(round_grads_, gctx));
    } else {
      aggregate_with_quorum(s, gctx);
    }
    // Selection accounting is only meaningful for selecting rules, and
    // only on rounds where the rule's aggregate was actually applied.
    if (s.outcome == RoundOutcome::kProceed)
      s.trusted = gar_->last_selected();
  }

  // Periodic evaluation (always evaluate the final round) of every round
  // that applied an aggregate.
  bool eval_due(const RoundState& s) const {
    return s.applied != nullptr && ((s.round + 1) % cfg_.eval_every == 0 ||
                                    s.round + 1 == cfg_.rounds);
  }
  void evaluate(RoundState& s) {
    nn::Model& model = worker_models_.front();
    model.set_parameters(params_);
    const double acc =
        evaluate_accuracy(model, data_.test, 256, cfg_.eval_max_samples);
    result.history.push_back({s.round, acc});
    result.best_accuracy = std::max(result.best_accuracy, acc);
    result.final_accuracy = acc;
    s.test_accuracy = acc;
  }

  // The round's single exit, whichever stage ended it: uplink billing, run
  // totals, the adversary's feedback and the observer.
  void publish(RoundState& s, const RoundObserver& observer) {
    // Every transported row was paid for, decoded or not. Under chaos
    // transport every post-churn client transmitted (retries included)
    // whether or not its update was ultimately usable, so that billing is
    // attempts-based — skipped rounds included.
    if (transport_on()) {
      s.uplink_bytes =
          (chaos_transport_ ? s.uplink_attempts : s.rows_sent) * wire_bytes_;
      s.uplink_dense_bytes =
          std::uint64_t(chaos_transport_ ? s.transmitters : s.rows_sent) *
          dim_ * 4;
      obs::count(obs::Stage::kUplink, obs::Counter::kWireBytes,
                 s.uplink_bytes);
      obs::count(obs::Stage::kUplink, obs::Counter::kDenseBytes,
                 s.uplink_dense_bytes);
      obs::count(obs::Stage::kDecode, obs::Counter::kDecodeRejects,
                 s.decode_rejects);
    }
    TrainingResult& r = result;
    r += s;
    s.skipped = s.applied == nullptr;
    if (s.skipped) ++r.skipped_rounds;
    if (s.outcome == RoundOutcome::kFallbackClippedMean)
      ++r.fallback_cmean_rounds;
    if (s.outcome == RoundOutcome::kFallbackPrevAggregate)
      ++r.fallback_prev_rounds;
    if (!s.trusted.empty())
      r.selection.accumulate(s.trusted, s.byzantine, s.participants);

    // Close the adversary's feedback loop (attack.h RoundFeedback): what
    // the colluding clients could observe this round — skips included, an
    // adaptive attacker (attacks/adaptive.h) learns from silence too. Runs
    // before the round-boundary checkpoint, so adaptive search state is
    // crash-consistent; the aggregate span borrows the pipeline's buffer
    // and is only valid for the call.
    attacks::RoundFeedback fb;
    fb.round = s.round;
    fb.participants = s.participants;
    fb.byzantine = s.byzantine;
    fb.has_selection = s.outcome == RoundOutcome::kProceed &&
                       gar_->reports_selection();
    fb.selected = s.trusted.size();
    for (const std::size_t id : s.trusted)
      fb.selected_byzantine += id < s.byzantine ? 1 : 0;
    fb.decode_rejects = s.decode_rejects;
    fb.skipped = s.skipped;
    fb.degraded = s.outcome != RoundOutcome::kProceed;
    if (s.applied != nullptr) fb.aggregate = *s.applied;
    attack_.observe_round(fb);

    if (!observer) return;
    s.attack_name = attack_.name();
    if (s.applied != nullptr) s.aggregate = *s.applied;
    s.selected = s.trusted;
    if (sharded_ != nullptr && s.outcome == RoundOutcome::kProceed) {
      s.shards = sharded_->last_shards();
      s.shard_survivors = sharded_->last_shard_survivors();
    }
    observer(s);
  }

  // ---- Crash-consistent checkpointing (fl/checkpoint.h) -------------------
  // One field list serves save and load (common::ByteIo). The payload
  // carries exactly the mutable cross-round state: the config-hash guard,
  // the next round, the model parameters, momentum velocity and previous
  // aggregate, the four stream cursors, the clients, the result
  // accumulators, the GAR's and attack's state, then the caller's blob.
  // The chaos engine carries no cursor — its draws are stateless in
  // (seed, client, round) — and RoundState is never saved.
  void checkpoint(common::ByteIo& io, std::size_t& next_round) {
    std::uint64_t hash = config_hash_;
    io(hash);
    if (hash != config_hash_)
      throw std::runtime_error(
          "checkpoint: configuration hash mismatch — the file was written "
          "by a differently-configured run (" + cfg_.checkpoint.path + ")");
    io(next_round, params_, optimizer_, last_aggregate_, attack_rng_,
       gar_rng_, participation_rng_, failure_rng_);
    if (params_.size() != dim_)
      throw std::runtime_error(
          "checkpoint: parameter count mismatch (a different model?)");
    std::size_t n_clients = clients_.size();
    io(n_clients);
    if (n_clients != clients_.size())
      throw std::runtime_error("checkpoint: client count mismatch");
    for (Client& c : clients_) io(c);
    TrainingResult& r = result;
    std::size_t n_history = r.history.size();
    io(n_history);
    r.history.resize(n_history);
    for (RoundRecord& rec : r.history) io(rec.round, rec.test_accuracy);
    io(r.best_accuracy, r.final_accuracy, r.selection.honest_rate,
       r.selection.malicious_rate, r.selection.rounds, r.skipped_rounds,
       r.fallback_cmean_rounds, r.fallback_prev_rounds);
    r.tally_fields(io);
    io.blob(*gar_);
    io.blob(attack_);
    // Checkpoint bytes = the core payload, measured before the extra blob
    // is appended: the registry itself may serialize into that blob, and
    // counting its own output would make the count depend on it.
    if (io.saving())
      obs::count(obs::Counter::kCheckpointBytes, io.writer().bytes().size());
    ExtraState extra{cfg_.checkpoint};
    io.blob(extra);
  }

 private:
  // Scratch model `w` for the parallel client loop, grown on demand.
  // Every client evaluates the same global parameters each round, and
  // client-level local training fans out over the thread pool (clients
  // are independent — their rng, loss stats and momentum buffers are
  // per-client, so results are identical for any SIGNGUARD_THREADS).
  // Models grow to min(pool size, participants), re-checked per round in
  // case the pool is resized mid-run. A deque keeps references to
  // existing models stable across growth; model 0 also serves evaluation.
  nn::Model& worker_model(std::size_t w) {
    while (worker_models_.size() <= w)
      worker_models_.push_back(model_factory_(cfg_.seed));
    return worker_models_[w];
  }

  // Encodes round_grads_ rows [begin_row, end_row) through the wire —
  // encode, optional tamper, chaos transport corruption, then either
  // decode back in place (decode_rows) or validate the buffer without
  // touching the row (the wire path's Byzantine uplinks) — marking
  // rejects either way. validate() accepts exactly the buffers
  // decode_into accepts, so the reject set is path-independent.
  // client_of maps a row to its global client id (for the hook and the
  // chaos stream). Rows are independent, and the chaos draws are
  // stateless in (client, round), so the fan-out is bitwise
  // thread-invariant. The fan-out interleaves encode and decode per row,
  // so the driver bills wall-clock to the uplink stage as a whole; the
  // work counters use explicit stages so the per-stage volumes stay
  // separable.
  template <class ClientOf>
  void transport(std::size_t round, std::size_t begin_row,
                 std::size_t end_row, bool decode_rows, ClientOf client_of) {
    const std::uint64_t n_rows = end_row - begin_row;
    obs::count(obs::Stage::kEncode, obs::Counter::kRowsEncoded, n_rows);
    if (decode_rows) {
      obs::count(obs::Stage::kDecode, obs::Counter::kRowsDecoded, n_rows);
      obs::count(obs::Stage::kDecode, obs::Counter::kDenseBytes,
                 n_rows * dim_ * 4);
    }
    if (enc_scratch_.size() < common::thread_count())
      enc_scratch_.resize(common::thread_count());
    common::parallel_chunks(
        end_row - begin_row,
        [&](std::size_t b, std::size_t e, std::size_t worker) {
          for (std::size_t t = begin_row + b; t < begin_row + e; ++t) {
            auto& buf = uplink_[t];
            comm::encode_into(*codec_, round_grads_.row(t), buf,
                              enc_scratch_[worker]);
            if (cfg_.uplink_tamper) cfg_.uplink_tamper(client_of(t), buf);
            if (chaos_transport_) {
              // Re-derive this uplink's fate from its stateless stream (a
              // pure function of (client, round) — see fl/chaos.h) and
              // mangle the bytes of a corrupt arrival. The wire layer's
              // checksum/framing then rejects it like any hostile buffer.
              const UplinkSim sim =
                  chaos_->simulate_uplink(client_of(t), round);
              if (sim.delivery == UplinkSim::Delivery::kCorrupt &&
                  !buf.empty()) {
                if (sim.corrupt == UplinkSim::Corrupt::kTruncate)
                  buf.resize(sim.corrupt_pos % buf.size());
                else
                  buf[(sim.corrupt_pos / 8) % buf.size()] ^=
                      std::uint8_t(1) << (sim.corrupt_pos % 8);
              }
            }
            const comm::DecodeStatus st =
                decode_rows
                    ? comm::decode_into(*codec_, buf, round_grads_.row(t))
                    : comm::validate(*codec_, buf, dim_);
            if (st != comm::DecodeStatus::kOk) rejected_[t] = 1;
          }
        });
  }

  // The global update: remembers `aggregate` as the round's (the quorum
  // fallback replays it, the checkpoint carries it) and takes one
  // momentum-SGD step with it.
  const std::vector<float>& apply(std::vector<float> aggregate) {
    last_aggregate_ = std::move(aggregate);
    assert(last_aggregate_.size() == params_.size());
    optimizer_.step(params_, last_aggregate_);
    return last_aggregate_;
  }

  // Quorum-policed aggregation (fl/chaos.h): same GAR + update sequence
  // as the plain path, but the aggregate is only applied after the pre-
  // and post-filter quorums pass; otherwise the round degrades down the
  // policy's fallback chain — clipped mean, then the previous aggregate,
  // then skip.
  void aggregate_with_quorum(RoundState& s, const agg::GarContext& gctx) {
    std::optional<std::vector<float>> agg;
    if (s.participants >= cfg_.quorum.min_participants) {
      try {
        agg = gar_->aggregate(round_grads_, gctx);
      } catch (const std::exception&) {
        // A starved rule (e.g. Bulyan's n >= 4m+3) degrades instead of
        // aborting the run.
      }
      if (agg && cfg_.quorum.min_survivors > 0 &&
          gar_->reports_selection() &&
          gar_->last_selected().size() < cfg_.quorum.min_survivors)
        agg.reset();
    }
    if (agg) {
      s.applied = &apply(std::move(*agg));
      return;
    }
    if (cfg_.quorum.action == DegradeAction::kClippedMean) {
      // Norm-clipped mean over the finite-norm rows, with their median
      // norm as the bound — SignGuard's own aggregation step minus its
      // filters: an unbounded norm band admits every finite row. Falls
      // through when nothing finite arrived.
      const core::NormFilterResult finite = core::norm_filter(
          round_grads_, {0.0, std::numeric_limits<double>::infinity()});
      if (!finite.accepted.empty()) {
        s.applied = &apply(core::clipped_mean(round_grads_, finite.accepted,
                                              finite.median_norm,
                                              /*clip=*/true, finite.norms));
        s.outcome = RoundOutcome::kFallbackClippedMean;
        return;
      }
    }
    if (cfg_.quorum.action != DegradeAction::kSkip &&
        !last_aggregate_.empty()) {
      // Replay the previous round's aggregate (copy first: apply
      // overwrites the buffer being read).
      std::vector<float> prev = last_aggregate_;
      s.applied = &apply(std::move(prev));
      s.outcome = RoundOutcome::kFallbackPrevAggregate;
      return;
    }
    s.outcome = RoundOutcome::kSkippedQuorum;
  }

  const TrainerConfig& cfg_;
  const data::TrainTest& data_;
  const ModelFactory& model_factory_;
  attacks::Attack& attack_;
  const std::size_t n_, m_;
  // Seed streams. Declaration order is the draw order from the root —
  // attack, GAR, then the partition and per-client seeds, then
  // participation and failure — so the layout matches every committed
  // golden.
  Rng rng_;
  Rng attack_rng_;
  Rng gar_rng_;
  std::vector<Client> clients_;
  Rng participation_rng_;
  Rng failure_rng_;
  std::deque<nn::Model> worker_models_;  // see worker_model()
  // Cross-round server state (Algorithm 1): the rule, the global model's
  // parameters, the momentum-SGD optimizer (momentum is applied
  // server-side; docs/ARCHITECTURE.md "Substitutions") and the aggregate
  // the last update applied (empty before the first).
  std::unique_ptr<agg::Aggregator> gar_;
  std::vector<float> params_;
  nn::SgdMomentum optimizer_;
  std::vector<float> last_aggregate_;
  const std::size_t dim_;
  // Chaos engine (fl/chaos.h): seeded from its own keyed stream under the
  // config seed — never from `rng_` — so enabling it leaves every draw
  // above (and the legacy failure stream) untouched. Its transport faults
  // need wire buffers, so a non-none profile forces the transport on.
  std::optional<ChaosEngine> chaos_;
  const bool chaos_transport_ =
      cfg_.chaos.active() && !cfg_.chaos.profile.none();
  // Uplink transport (src/comm): active when a codec is configured, a
  // tamper hook wants to exercise the wire path, or the chaos engine
  // injects transport faults (codec_ is null otherwise). Every
  // participating row is encoded into its per-client buffer and decoded
  // back into the same GradientMatrix row — the server-side view of the
  // round. All buffers and scratch are allocated once and reused.
  std::unique_ptr<comm::Codec> codec_;
  std::vector<std::vector<std::uint8_t>> uplink_;            // per round row
  std::vector<std::vector<comm::CodecScratch>> enc_scratch_;  // per worker
  std::vector<char> rejected_;
  std::uint64_t wire_bytes_ = 0;  // encoded_size(codec, dim), 0 when off
  // Compressed-domain SignGuard: when the GAR is a plain SignGuard and a
  // real codec is active, the server never decodes the Byzantine uplinks
  // up front — it validates them, runs the filters on statistics computed
  // from the wire bytes, and decodes only the trusted set. Benign rows
  // are still decoded in place first: the attacker observes the
  // post-codec view of honest gradients on either path (a simulation
  // requirement, and on the decode path that same decode doubles as the
  // server's). Every other GAR takes the decode path. Admission decisions
  // and the aggregate are bitwise identical across the two paths; only
  // the decoded-bytes accounting differs. An active QuorumPolicy pins the
  // decode path: its clipped-mean fallback needs every accepted row
  // materialized.
  core::SignGuard* const sg_;
  bool wire_filtering_ = false;
  const agg::ShardedAggregator* const sharded_;
  const std::uint64_t config_hash_;
  // Round buffers, allocated once and reused: the m_round Byzantine rows
  // lead (so selection accounting can attribute them), benign rows
  // follow. Until craft returns, the Byzantine rows hold what those
  // clients would honestly send — the attack's raw material.
  // late_grads_ receives straggler gradients: computed (the client's
  // state advances) but discarded before aggregation.
  common::GradientMatrix round_grads_, late_grads_;
  std::vector<std::size_t> sampled_, active_;  // selection scratch
  std::vector<attacks::GradientView> benign_views_;
};

// ---- The driver: one synchronous round ------------------------------------
// Stages run in a fixed sequence, each inside its obs::StageScope (the
// span labels are part of the trace contract). Local training runs on
// every round; each later stage runs only while the round is still
// proceeding — a stage that ends the round early just sets s.outcome, and
// control falls through to the single publish.
void run_round(RoundPipeline& p, std::size_t round,
               const RoundObserver& observer) {
  obs::Span round_span("round", std::int64_t(round));
  RoundState s;
  s.round = round;
  p.select(s);
  if (p.chaos_on()) {
    const obs::StageScope stage(obs::Stage::kUplink, "chaos/sift");
    p.chaos_sift(s);
  }
  {
    const obs::StageScope stage(obs::Stage::kClientCompute, nullptr,
                                std::int64_t(s.n_work()));
    p.client_compute(s);
  }
  const auto stage = [&](obs::Stage st, const char* label, std::size_t arg,
                         void (RoundPipeline::*fn)(RoundState&)) {
    if (s.outcome != RoundOutcome::kProceed) return;
    const obs::StageScope scope(st, label, std::int64_t(arg));
    (p.*fn)(s);
  };
  if (p.transport_on())
    stage(obs::Stage::kUplink, "transport", s.benign_sel.size(),
          &RoundPipeline::benign_uplink);
  stage(obs::Stage::kOther, "attack/craft", s.m_round(),
        &RoundPipeline::craft);
  if (p.transport_on())
    stage(obs::Stage::kUplink, "transport", s.m_round(),
          &RoundPipeline::byzantine_uplink);
  stage(obs::Stage::kAggregate, nullptr, s.participants,
        &RoundPipeline::aggregate);
  if (p.eval_due(s)) {
    const obs::StageScope stage(obs::Stage::kEval);
    p.evaluate(s);
  }
  p.publish(s, observer);
}

}  // namespace

TrainingResult Trainer::run(attacks::Attack& attack,
                            std::unique_ptr<agg::Aggregator> gar,
                            const RoundObserver& observer) {
  // Attach the (possibly null) counter registry to this thread for the
  // whole run; pool helpers inherit it through common::task_context, so
  // every obs::count — trainer-level or deep inside a kernel — lands in
  // the same per-round record regardless of SIGNGUARD_THREADS.
  obs::ScopedMetrics obs_scope(cfg_.metrics);
  RoundPipeline p(cfg_, data_, model_factory_, n_byz_, attack,
                  std::move(gar));
  const CheckpointConfig& ckpt = cfg_.checkpoint;
  std::size_t start_round = 0;
  if (ckpt.active() && ckpt.resume && checkpoint_exists(ckpt.path)) {
    const std::string payload = read_checkpoint_file(ckpt.path);
    common::ByteReader r(payload);
    common::ByteIo io(r);
    p.checkpoint(io, start_round);
  }

  for (std::size_t round = start_round; round < cfg_.rounds; ++round) {
    // Counter round brackets the checkpoint save, so checkpoint bytes
    // land in the round that wrote them, and a serialize() inside
    // save_extra snapshots the open round exactly as end_round will
    // record it (nothing counts between the save and end_round) —
    // kill+resume therefore restores bitwise-identical counter state.
    if (cfg_.metrics != nullptr) cfg_.metrics->begin_round(round);
    run_round(p, round, observer);
    // Checkpoint AFTER the round completes (skipped rounds included), so
    // a resume replays from a round boundary; the final round's state is
    // not worth a file. The halt switch simulates a crash right after
    // the round — deliberately without forcing a save, exactly like a
    // real kill between checkpoints.
    std::size_t next_round = round + 1;
    if (ckpt.active() && next_round % ckpt.every == 0 &&
        next_round < cfg_.rounds) {
      const obs::StageScope stage(obs::Stage::kCheckpoint, "checkpoint/save",
                                  std::int64_t(next_round));
      common::ByteWriter w;
      common::ByteIo io(w);
      p.checkpoint(io, next_round);
      write_checkpoint_file(ckpt.path, w.bytes());
    }
    if (cfg_.metrics != nullptr) cfg_.metrics->end_round();
    if (ckpt.halt_after_round > 0 && next_round >= ckpt.halt_after_round &&
        next_round < cfg_.rounds) {
      p.result.halted = true;
      break;
    }
  }
  return std::move(p.result);
}

}  // namespace signguard::fl
