// perfbench_serving: one run of one serving workload against the real
// threaded runtime, with latency measured from outside the program.
//
//   perfbench_serving --workload batch-decode|frontdoor --seed N
//                     --seconds S --trace 0|1
//
// Workloads (each in its own process):
//   batch-decode  offline bursts: every request of a round due at its open,
//                 short prompts, long outputs, KV capacity below the burst's
//                 peak demand. S sets the number of bursts (S / 8, at least 3).
//   frontdoor     closed loop of SSE-streaming POST /v1/completions calls to
//                 an in-process HttpServer over the tiny model, in equal
//                 rounds that together last S seconds.
//
// Throughput is measured per round, over the whole round: tokens (or
// completed requests) over the time from the round's open to its last token.
// The run reports the median over its rounds.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 does
// the same, then replays round 0 on a fresh service with span tracing and a
// recording scheduler decorator, and prints the per-layer metrics. Outside
// the timed window every run checks its token streams against
// nn::generate_reference and its request accounting; any mismatch names the
// request, sets "correct": false and exits 1.
//
// stdout: a run record line ({"run_record": ...}: host, constants, sample
// counts, metric units and the end-to-end metric each layer metric should
// move), then, last, the result line the benchmark contract defines.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "model/partition.hpp"
#include "net/socket.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/reference.hpp"
#include "obs/obs.hpp"
#include "runtime/service.hpp"
#include "sched/token_throttle.hpp"
#include "server/http_server.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

using namespace gllm;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// The bench-nn shape of bench/bench_nn.cpp: big enough that GEMMs, not
/// bookkeeping, dominate a forward.
model::ModelConfig bench_nn_model() {
  model::ModelConfig m;
  m.name = "bench-nn";
  m.n_layers = 6;
  m.hidden = 256;
  m.n_heads = 8;
  m.n_kv_heads = 8;
  m.head_dim = 32;
  m.intermediate = 768;
  m.vocab = 512;
  m.dtype_bytes = 4;
  m.validate();
  return m;
}

enum class Kind { kBatchDecode, kFrontdoor };

/// Every constant of one workload, fixed here and echoed in the run record.
struct Workload {
  Kind kind = Kind::kBatchDecode;
  const char* name = "";
  const char* why = "";
  model::ModelConfig model;
  int pp = 2;
  std::int64_t kv_capacity = 0;
  int burst = 0;        ///< batch-decode: requests due at the open of each round
  int connections = 0;  ///< frontdoor: closed-loop clients
  int prompt_min = 0, prompt_max = 0, output_min = 0, output_max = 0;
  /// batch-decode: the fewest bursts a run measures; frontdoor: the rounds
  /// --seconds is split into.
  int rounds = 0;
  /// batch-decode: the length of one burst on a 4-vCPU AVX2 host; a run
  /// measures --seconds / burst_s bursts.
  double burst_s = 0.0;
  double ttft_limit_s = 0.0;  ///< SLO: time to first token, from due (0: no SLO)
  double tpot_limit_s = 0.0;  ///< SLO: mean gap after the first token
  double ttft_tail_p = 0.0;   ///< fixed tail percentile of ttft_tail_ms
  double itl_tail_p = 0.0;    ///< fixed tail percentile of itl_tail_ms
  int reference_checks = 0;   ///< requests per round compared to the reference (0 = all)
  /// Trace ring events per thread per traced second (sized so none drop).
  std::size_t trace_events_per_s = 0;
};

Workload make_workload(const std::string& name) {
  Workload w;
  if (name == "batch-decode") {
    w.kind = Kind::kBatchDecode;
    w.name = "batch-decode";
    w.why =
        "an offline burst of short prompts and long outputs under KV pressure: decode "
        "GEMMs, attention over long contexts, the LM head, eq. 4 #D and the KV throttle";
    w.model = bench_nn_model();
    // Peak demand of a burst is about 20 x 296 tokens; the KV holds ~half of
    // it, so ~11 sequences per burst are preempted and recomputed.
    w.burst = 20;
    w.kv_capacity = 3072;
    w.prompt_min = 16;
    w.prompt_max = 64;
    w.output_min = 240;
    w.output_max = 272;
    w.rounds = 3;
    w.burst_s = 8.0;
    w.ttft_tail_p = 90.0;
    w.itl_tail_p = 99.0;
    w.reference_checks = 1;
    w.trace_events_per_s = 10000;
  } else if (name == "frontdoor") {
    w.kind = Kind::kFrontdoor;
    w.name = "frontdoor";
    w.why =
        "closed-loop SSE requests over HTTP on the tiny model, where parsing, dispatch, "
        "the driver inbox, sched.plan and SSE fan-out dominate";
    w.model = model::presets::tiny();
    w.kv_capacity = 4096;
    w.connections = 4;
    w.prompt_min = 8;
    w.prompt_max = 16;
    w.output_min = 4;
    w.output_max = 8;
    w.rounds = 5;
    // With 4 clients TTFT p50 is 2.6-3.6 ms and ITL p50 1.3-2 ms on a 4-vCPU
    // AVX2 host; the limits flag only gross slowdowns.
    w.ttft_limit_s = 0.02;
    w.tpot_limit_s = 0.025;
    w.ttft_tail_p = 99.0;
    w.itl_tail_p = 99.0;
    w.reference_checks = 0;
    w.trace_events_per_s = 30000;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "' (batch-decode | frontdoor)");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Metrics: every name with its unit and, for layer metrics, the end-to-end
// metric and workload it should move.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;  ///< "" for end-to-end metrics
};

// On batch-decode every round sends the same mix of requests, so req_per_s
// is output_tok_per_s over a nearly constant tokens-per-request ratio there:
// one measurement, not two. On frontdoor each counts its own events.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"peak_rss_mb", "MB", ""},
    {"output_tok_per_s", "1/s", ""},
    {"req_per_s", "1/s", ""},
};

// The latency metrics did not repeat within a tenth across seeds on a shared
// host: the wake-up latency of idle pipeline threads moved TTFT and ITL
// percentiles by 12-50%. They are layer metrics instead: reported by traced
// runs, measured by their untraced rounds exactly as an untraced run would.
constexpr MetricDef kPerLayer[] = {
    {"e2e.slo_attainment", "share", "demoted end-to-end metric of frontdoor (0 elsewhere: no SLO)"},
    {"e2e.ttft_p50_ms", "ms", "demoted end-to-end metric: did not repeat within a tenth"},
    {"e2e.ttft_tail_ms", "ms", "demoted end-to-end metric: did not repeat within a tenth"},
    {"e2e.itl_p50_ms", "ms", "demoted end-to-end metric: did not repeat within a tenth"},
    {"e2e.itl_tail_ms", "ms", "demoted end-to-end metric: did not repeat within a tenth"},
    {"sched.plan_p50_us", "us", "e2e.ttft_p50_ms on frontdoor; none on batch-decode"},
    {"sched.plan_p99_us", "us", "e2e.ttft_p50_ms on frontdoor; none on batch-decode"},
    {"sched.prefill_tokens_per_batch", "tokens", "e2e.itl_tail_ms; none on batch-decode"},
    {"sched.decode_rows_per_batch", "rows", "e2e.itl_tail_ms; none on batch-decode"},
    {"sched.batch_tokens_cv", "ratio", "e2e.itl_tail_ms; none on batch-decode"},
    {"sched.iter_period_ms", "ms", "output_tok_per_s on batch-decode"},
    {"sched.empty_plan_share", "share", "output_tok_per_s on batch-decode"},
    {"sched.wp_tokens_mean", "tokens", "output_tok_per_s on batch-decode"},
    {"sched.rd_mean", "seqs", "output_tok_per_s on batch-decode"},
    {"sched.kv_free_min", "share", "output_tok_per_s on batch-decode"},
    {"sched.kv_free_mean", "share", "output_tok_per_s on batch-decode"},
    {"runtime.submit_p50_us", "us", "e2e.ttft_p50_ms on batch-decode (0 on frontdoor)"},
    {"runtime.submit_p99_us", "us", "e2e.ttft_p50_ms on batch-decode (0 on frontdoor)"},
    {"runtime.ttft_internal_p50_ms", "ms", "e2e.ttft_p50_ms on frontdoor"},
    {"runtime.stage0.busy_share", "share", "output_tok_per_s on batch-decode"},
    {"runtime.stage1.busy_share", "share", "output_tok_per_s on batch-decode"},
    {"runtime.stage0.wait_share", "share", "output_tok_per_s on batch-decode"},
    {"runtime.stage1.wait_share", "share", "output_tok_per_s on batch-decode"},
    {"runtime.stage_imbalance", "ratio", "output_tok_per_s on batch-decode"},
    {"runtime.bubble_share", "share", "output_tok_per_s on batch-decode"},
    {"runtime.preemptions", "count", "e2e.ttft_tail_ms and output_tok_per_s on batch-decode"},
    {"runtime.prefill_chunks_per_req", "chunks", "e2e.ttft_tail_ms on batch-decode"},
    {"engine.preemptions_total", "count", "output_tok_per_s on batch-decode"},
    {"engine.stalled_prefill_resets_total", "count", "output_tok_per_s on batch-decode"},
    {"engine.tokens_scheduled_total", "tokens", "output_tok_per_s on batch-decode"},
    {"nn.stagefirst.decode_ms", "ms", "output_tok_per_s on batch-decode"},
    {"nn.stagelast.decode_ms", "ms", "output_tok_per_s on batch-decode"},
    {"nn.stagefirst.prefill_ms", "ms", "e2e.ttft_p50_ms on batch-decode"},
    {"nn.stagelast.prefill_ms", "ms", "e2e.ttft_p50_ms on batch-decode"},
    {"nn.lm_head_share", "share", "runtime.stage_imbalance; nothing on frontdoor"},
    {"server.front_door_p50_ms", "ms", "req_per_s and e2e.ttft_p50_ms on frontdoor (0 elsewhere)"},
    {"server.bytes_out_per_req", "bytes", "req_per_s on frontdoor (0 elsewhere)"},
    {"server.stream_events_per_token", "ratio", "req_per_s on frontdoor (0 elsewhere)"},
    {"server.conns_accepted", "count", "req_per_s on frontdoor (0 elsewhere)"},
    {"server.backpressure_events", "count", "req_per_s on frontdoor (0 elsewhere)"},
    {"bench.send_lag_p99_ms", "ms", "validity check: the generator kept its schedule (0 on frontdoor)"},
    {"bench.callback_p99_us", "us", "validity check: on_token stays O(1) (0 on frontdoor)"},
    {"bench.failed_share", "share", "validity check: no request failed"},
    {"obs.trace_overhead", "ratio", "validity check: untraced over traced primary metric on round 0"},
    {"obs.trace_dropped", "count", "validity check: must be 0"},
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Ids below this are warm-up requests, not measured. Round r uses the ids
/// from kFirstMeasuredId + r * kRoundIds on.
constexpr std::int64_t kFirstMeasuredId = 1000;
constexpr std::int64_t kRoundIds = 1000000;

std::int64_t round_first_id(int round) {
  return kFirstMeasuredId + static_cast<std::int64_t>(round) * kRoundIds;
}

/// The frontdoor clients draw their requests from a pool this large.
constexpr std::size_t kFrontdoorPool = 128;

struct Request {
  std::int64_t id = 0;
  std::vector<nn::TokenId> prompt;
  int max_new_tokens = 0;
  int entry = 0;  ///< index in its inputs (frontdoor: the request pool)
};

/// n stratified uniforms in (0, 1), shuffled: one draw per 1/n stratum, so a
/// run's length mix matches the distribution closely whatever the seed.
std::vector<double> stratified(util::Rng& rng, std::size_t n) {
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i)
    u[i] = (static_cast<double>(i) + rng.uniform()) / static_cast<double>(n);
  for (std::size_t i = n; i > 1; --i)
    std::swap(u[i - 1], u[static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  return u;
}

int uniform_length(double u, int lo, int hi) {
  return std::min(hi, lo + static_cast<int>(u * (hi - lo + 1)));
}

/// The inputs of round `round`: a pure function of (seed, round). batch-decode
/// gets one burst; frontdoor gets the request pool its clients draw from.
std::vector<Request> make_requests(const Workload& w, std::uint64_t seed, int round) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(round) * 7919 + 17);
  const std::size_t n =
      w.kind == Kind::kBatchDecode ? static_cast<std::size_t>(w.burst) : kFrontdoorPool;
  const auto u_prompt = stratified(rng, n);
  const auto u_output = stratified(rng, n);
  std::vector<Request> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request& r = out[i];
    r.id = round_first_id(round) + static_cast<std::int64_t>(i);
    r.max_new_tokens = uniform_length(u_output[i], w.output_min, w.output_max);
    r.prompt = nn::synthetic_prompt(w.model, rng.next_u64(),
                                    uniform_length(u_prompt[i], w.prompt_min, w.prompt_max));
    r.entry = static_cast<int>(i);
  }
  return out;
}

nn::GenRequest to_gen(const Request& r) {
  nn::GenRequest g;
  g.id = r.id;
  g.prompt = r.prompt;
  g.max_new_tokens = r.max_new_tokens;
  return g;
}

// ---------------------------------------------------------------------------
// Recording scheduler decorator (traced runs only)
// ---------------------------------------------------------------------------

struct PlanSample {
  Clock::time_point at;
  double plan_us = 0.0;
  int prefill_tokens = 0;
  int decode_rows = 0;
  double decode_ctx_mean = 0.0;
  std::int64_t wp_tokens = 0;
  std::int64_t rd = 0;
  double kv_free = 0.0;
};

/// IScheduler decorator around TokenThrottleScheduler: times every plan()
/// call and records the context it saw and the batch it chose.
class RecordingScheduler final : public sched::IScheduler {
 public:
  explicit RecordingScheduler(std::shared_ptr<sched::IScheduler> inner)
      : inner_(std::move(inner)) {
    samples_.reserve(1 << 18);
  }

  sched::MicroBatchPlan plan(const sched::ScheduleContext& ctx) override {
    const auto begin = Clock::now();
    sched::MicroBatchPlan plan = inner_->plan(ctx);
    const auto end = Clock::now();
    PlanSample s;
    s.at = begin;
    s.plan_us = seconds_between(begin, end) * 1e6;
    s.prefill_tokens = plan.prefill_tokens();
    double ctx_sum = 0.0;
    for (const sched::BatchItem& item : plan.items) {
      if (item.phase != sched::Phase::kDecode) continue;
      ++s.decode_rows;
      ctx_sum += static_cast<double>(item.context);
    }
    s.decode_ctx_mean = s.decode_rows > 0 ? ctx_sum / s.decode_rows : 0.0;
    s.wp_tokens = ctx.waiting_prefill_tokens();
    s.rd = ctx.total_decode_seqs;
    s.kv_free = ctx.kv_free_rate;
    samples_.push_back(s);
    return plan;
  }
  std::string_view name() const override { return inner_->name(); }
  void set_observability(obs::Observability* obs, int track) override {
    inner_->set_observability(obs, track);
  }

  /// Read after the service has stopped (driver thread joined).
  const std::vector<PlanSample>& samples() const { return samples_; }

 private:
  std::shared_ptr<sched::IScheduler> inner_;
  std::vector<PlanSample> samples_;
};

// ---------------------------------------------------------------------------
// Measured passes: set-ups, a warm-up, then one or more rounds on one service
// ---------------------------------------------------------------------------

/// What the benchmark saw of one request.
struct Observed {
  std::int64_t id = 0;
  double due_s = 0.0;            ///< seconds after the round opened
  std::vector<double> token_at;  ///< seconds after the round opened
  std::vector<nn::TokenId> tokens;
  int terminals = 0;             ///< terminal events (must be exactly 1)
  bool error = false;            ///< an error event or a non-200 status
  int expected = 0;              ///< tokens requested
  int entry = 0;                 ///< index of the request in its inputs
};

struct RoundResult {
  std::vector<Request> inputs;
  std::vector<Observed> requests;
  double elapsed_s = 0.0;  ///< round open -> last token
  Clock::time_point open, close;
  perfbench::Interval window;  ///< the round on the tracer's clock
  std::vector<double> send_lag_ms;
  std::vector<double> submit_us;
  std::vector<double> callback_us;
  std::vector<runtime::RuntimeRequestRecord> records;  ///< this round's ids only
};

struct PassResult {
  std::vector<double> setup_s;  ///< one per set-up of the pass
  double peak_rss_mb = 0.0;
  std::vector<RoundResult> rounds;
  // Traced passes only (they run one round).
  std::vector<obs::TraceEvent> events;
  std::uint64_t trace_dropped = 0;
  std::size_t max_track_events = 0;  ///< fullest trace ring, in events
  std::vector<PlanSample> plans;  ///< plan() calls inside the round
  std::map<std::string, double> counters;  ///< obs registry after the pass
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

runtime::RuntimeOptions runtime_options(const Workload& w, obs::Observability* obs) {
  runtime::RuntimeOptions o;
  o.model = w.model;
  o.pp = w.pp;
  o.tp = 1;
  o.kv_capacity_tokens = w.kv_capacity;
  o.obs = obs;
  return o;
}

/// The scheduler of a pass: TokenThrottleScheduler with the paper's
/// evaluation settings, wrapped in the recording decorator when traced.
struct PassScheduler {
  std::shared_ptr<sched::IScheduler> scheduler;
  std::shared_ptr<RecordingScheduler> recorder;

  explicit PassScheduler(bool traced) {
    scheduler = std::make_shared<sched::TokenThrottleScheduler>(sched::ThrottleParams{});
    if (traced) {
      recorder = std::make_shared<RecordingScheduler>(scheduler);
      scheduler = recorder;
    }
  }
};

/// Record what a traced pass left in the tracer, the decorator and the
/// registry. Call after the service stopped, so no thread still records.
void collect_traced(PassResult& p, obs::Observability& obs, const PassScheduler& sched) {
  p.counters["engine.preemptions_total"] =
      static_cast<double>(obs.serving().preemptions->value());
  p.counters["engine.stalled_prefill_resets_total"] =
      static_cast<double>(obs.serving().stalled_prefill_resets->value());
  p.counters["engine.tokens_scheduled_total"] =
      static_cast<double>(obs.serving().tokens_scheduled->value());
  p.counters["http.bytes_out"] = static_cast<double>(obs.http().bytes_out->value());
  p.counters["http.stream_events"] = static_cast<double>(obs.http().stream_events->value());
  p.counters["http.conns_accepted"] = static_cast<double>(obs.http().conns_accepted->value());
  p.counters["http.backpressure_events"] =
      static_cast<double>(obs.http().backpressure_events->value());
  if (sched.recorder == nullptr) return;
  p.events = obs.tracer().snapshot();
  p.trace_dropped = obs.tracer().dropped();
  std::map<int, std::size_t> per_track;  // one recording thread per track
  for (const obs::TraceEvent& ev : p.events)
    p.max_track_events = std::max(p.max_track_events, ++per_track[ev.track]);
  const RoundResult& r = p.rounds.front();
  for (const PlanSample& s : sched.recorder->samples())
    if (s.at >= r.open && s.at <= r.close) p.plans.push_back(s);
}

/// Keep the service's records of one round's ids.
void take_records(RoundResult& r, const runtime::PipelineService& service, int round) {
  const std::int64_t first = round_first_id(round);
  for (auto& rec : service.results())
    if (rec.id >= first && rec.id < first + kRoundIds) r.records.push_back(std::move(rec));
}

void set_elapsed(RoundResult& r) {
  for (const Observed& o : r.requests)
    if (!o.token_at.empty()) r.elapsed_s = std::max(r.elapsed_s, o.token_at.back());
}

/// Fill `slot` from the service's token stream. Runs on the driver thread
/// for tokens, so it is O(1): no lock, no allocation (the vectors were
/// reserved to max_new_tokens), one clock read, plus one more when timed.
struct CallbackTiming {
  std::vector<double> us;  ///< preallocated; the driver thread fills [0, n)
  std::size_t n = 0;
};

std::function<void(const runtime::StreamEvent&)> on_token(Observed* slot,
                                                          Clock::time_point t0,
                                                          CallbackTiming* timing) {
  return [slot, t0, timing](const runtime::StreamEvent& ev) {
    const auto in = Clock::now();
    if (ev.error != runtime::StreamError::kNone) {
      // Rejections fire from the submitting thread: record, never time.
      slot->error = true;
      ++slot->terminals;
      return;
    }
    if (ev.is_last) {
      ++slot->terminals;  // repeats the final token, which arrived already
    } else if (slot->tokens.size() < slot->tokens.capacity()) {
      slot->tokens.push_back(ev.token);
      slot->token_at.push_back(seconds_between(t0, in));
    } else {
      slot->error = true;  // more tokens than requested
    }
    if (timing != nullptr && timing->n < timing->us.size())
      timing->us[timing->n++] = seconds_between(in, Clock::now()) * 1e6;
  };
}

std::vector<Request> warmup_requests(const Workload& w) {
  std::vector<Request> out(4);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].id = static_cast<std::int64_t>(i) + 1;
    out[i].prompt = nn::synthetic_prompt(w.model, 900 + i, w.prompt_min);
    out[i].max_new_tokens = w.output_min;
  }
  return out;
}

/// batch-decode, one round: the generator (this thread) submits the whole
/// burst, due at the round's open, straight into PipelineService::submit and
/// waits until the service has finished it.
RoundResult burst_round(runtime::PipelineService& service, obs::Observability& obs,
                        std::vector<Request> inputs, int round, bool traced) {
  RoundResult r;
  r.inputs = std::move(inputs);
  const std::vector<Request>& requests = r.inputs;
  // Everything the generator hands over is built before the round opens.
  const std::size_t n = requests.size();
  r.requests.resize(n);
  std::vector<nn::GenRequest> gens(n);
  std::size_t total_tokens = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Observed& o = r.requests[i];
    o.id = requests[i].id;
    o.entry = requests[i].entry;
    o.expected = requests[i].max_new_tokens;
    o.tokens.reserve(static_cast<std::size_t>(requests[i].max_new_tokens));
    o.token_at.reserve(static_cast<std::size_t>(requests[i].max_new_tokens));
    gens[i] = to_gen(requests[i]);
    total_tokens += static_cast<std::size_t>(requests[i].max_new_tokens);
  }
  CallbackTiming timing;
  if (traced) timing.us.resize(total_tokens);
  std::vector<std::function<void(const runtime::StreamEvent&)>> callbacks(n);
  r.send_lag_ms.reserve(n);
  r.submit_us.reserve(n);

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i)
    callbacks[i] = on_token(&r.requests[i], t0, traced ? &timing : nullptr);
  const double tr0 = obs.tracer().now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto send = Clock::now();
    service.submit(std::move(gens[i]), std::move(callbacks[i]));
    const auto sent = Clock::now();
    r.send_lag_ms.push_back(seconds_between(t0, send) * 1e3);
    r.submit_us.push_back(seconds_between(send, sent) * 1e6);
  }
  service.drain();
  r.open = t0;
  r.close = Clock::now();
  r.window = {tr0, obs.tracer().now()};
  set_elapsed(r);
  take_records(r, service, round);
  r.callback_us.assign(timing.us.begin(),
                       timing.us.begin() + static_cast<std::ptrdiff_t>(timing.n));
  return r;
}

/// batch-decode: `setups` set-ups, a warm-up, then `rounds` bursts.
PassResult run_service_pass(const Workload& w, std::uint64_t seed, int rounds, bool traced,
                            int setups, std::size_t ring_capacity) {
  PassResult p;
  obs::ObsConfig cfg;
  cfg.tracing = traced;
  cfg.trace_ring_capacity = ring_capacity;
  obs::Observability obs(cfg);
  const PassScheduler sched(traced);

  std::unique_ptr<runtime::PipelineService> service;
  for (int i = 0; i < setups; ++i) {
    service.reset();
    const auto t = Clock::now();
    service = std::make_unique<runtime::PipelineService>(runtime_options(w, &obs),
                                                         sched.scheduler);
    service->start();
    p.setup_s.push_back(seconds_between(t, Clock::now()));
  }
  for (const Request& r : warmup_requests(w)) service->submit(to_gen(r));
  service->drain();

  for (int round = 0; round < rounds; ++round)
    p.rounds.push_back(burst_round(*service, obs, make_requests(w, seed, round), round, traced));
  p.peak_rss_mb = peak_rss_mb();
  service->stop();
  collect_traced(p, obs, sched);
  return p;
}

// ---------------------------------------------------------------------------
// frontdoor: HTTP clients
// ---------------------------------------------------------------------------

std::string completion_body(std::int64_t id, const Request& r) {
  std::string body = "{\"id\":" + std::to_string(id) + ",\"prompt\":[";
  for (std::size_t i = 0; i < r.prompt.size(); ++i) {
    if (i > 0) body += ',';
    body += std::to_string(r.prompt[i]);
  }
  body += "],\"max_tokens\":" + std::to_string(r.max_new_tokens) + ",\"stream\":true}";
  return body;
}

/// One streaming completion over a fresh loopback connection (the server
/// closes SSE responses). Token events are stamped as their bytes arrive.
Observed drive_http(int port, std::int64_t id, const Request& r, Clock::time_point t0) {
  Observed o;
  o.id = id;
  o.entry = r.entry;
  o.expected = r.max_new_tokens;
  o.due_s = seconds_between(t0, Clock::now());
  const std::string body = completion_body(id, r);
  const std::string raw = "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Content-Length: " + std::to_string(body.size()) +
                          "\r\n\r\n" + body;
  const int fd = net::connect_tcp("127.0.0.1", port, 10.0);
  if (fd < 0 || !net::send_all(fd, raw.data(), raw.size())) {
    if (fd >= 0) net::close_fd(fd);
    o.error = true;
    return o;
  }
  std::string in;
  std::size_t scan = std::string::npos;  // SSE parse position past the headers
  int status = 0;
  char buf[4096];
  while (net::wait_readable(fd, 30.0)) {
    const ssize_t got = net::recv_some(fd, buf, sizeof(buf));
    if (got <= 0) break;
    const double now = seconds_between(t0, Clock::now());
    in.append(buf, static_cast<std::size_t>(got));
    if (scan == std::string::npos) {
      const auto head_end = in.find("\r\n\r\n");
      if (head_end == std::string::npos) continue;
      if (in.size() > 12) status = std::atoi(in.c_str() + 9);  // "HTTP/1.1 200"
      scan = head_end + 4;
    }
    for (;;) {
      const auto end = in.find("\n\n", scan);
      if (end == std::string::npos) break;
      const std::string event = in.substr(scan, end - scan);
      scan = end + 2;
      if (const auto tok = event.find("\"token\":"); tok != std::string::npos) {
        o.tokens.push_back(std::atoi(event.c_str() + tok + 8));
        o.token_at.push_back(now);
      } else if (event.find("\"done\":true") != std::string::npos) {
        ++o.terminals;
        if (event.find("\"error\"") != std::string::npos) o.error = true;
      }
    }
  }
  net::close_fd(fd);
  if (status != 200) o.error = true;
  return o;
}

/// frontdoor, one round: `connections` closed-loop clients, each sending its
/// next request from the pool as soon as the previous one finished, until
/// `seconds` elapse. Client c of round r draws from a stream seeded by
/// (seed, r, c), so a replay of a round sends the same requests.
RoundResult closed_loop_round(const Workload& w, runtime::PipelineService& service,
                              obs::Observability& obs, int port, std::vector<Request> pool,
                              std::uint64_t seed, int round, double seconds) {
  RoundResult r;
  r.inputs = std::move(pool);
  std::atomic<std::int64_t> next_id{round_first_id(round)};
  std::vector<std::vector<Observed>> per_client(static_cast<std::size_t>(w.connections));
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  const double tr0 = obs.tracer().now();
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < w.connections; ++c) {
      clients.emplace_back([&, c] {
        util::Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(round) * 7919 +
                      static_cast<std::uint64_t>(c) + 1);
        auto& mine = per_client[static_cast<std::size_t>(c)];
        while (Clock::now() < deadline) {
          const auto entry = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(r.inputs.size()) - 1));
          mine.push_back(drive_http(port, next_id.fetch_add(1), r.inputs[entry], t0));
        }
      });
    }
  }
  r.open = t0;
  r.close = Clock::now();
  r.window = {tr0, obs.tracer().now()};
  for (auto& mine : per_client)
    for (auto& o : mine) r.requests.push_back(std::move(o));
  std::sort(r.requests.begin(), r.requests.end(),
            [](const Observed& a, const Observed& b) { return a.id < b.id; });
  set_elapsed(r);
  // A client can read its terminal event before the driver has recorded the
  // request; drain() waits for the records.
  service.drain();
  take_records(r, service, round);
  return r;
}

/// frontdoor: `setups` set-ups of the service and the server, a warm-up,
/// then `rounds` closed-loop rounds of `round_s` each.
PassResult run_frontdoor_pass(const Workload& w, std::uint64_t seed, double round_s,
                              int rounds, bool traced, int setups,
                              std::size_t ring_capacity) {
  PassResult p;
  obs::ObsConfig cfg;
  cfg.tracing = traced;
  cfg.trace_ring_capacity = ring_capacity;
  obs::Observability obs(cfg);
  const PassScheduler sched(traced);

  std::unique_ptr<server::HttpServer> http;
  std::unique_ptr<runtime::PipelineService> service;
  for (int i = 0; i < setups; ++i) {
    http.reset();
    service.reset();
    const auto t = Clock::now();
    service = std::make_unique<runtime::PipelineService>(runtime_options(w, &obs),
                                                         sched.scheduler);
    service->start();
    http = std::make_unique<server::HttpServer>(*service, server::ServerOptions{});
    http->start();
    p.setup_s.push_back(seconds_between(t, Clock::now()));
  }
  const int port = http->port();

  for (const Request& r : warmup_requests(w)) drive_http(port, r.id, r, Clock::now());
  const double conns_before = static_cast<double>(obs.http().conns_accepted->value());
  const double bytes_before = static_cast<double>(obs.http().bytes_out->value());
  const double events_before = static_cast<double>(obs.http().stream_events->value());

  const auto pool = make_requests(w, seed, 0);
  for (int round = 0; round < rounds; ++round)
    p.rounds.push_back(closed_loop_round(w, *service, obs, port, pool, seed, round, round_s));
  p.peak_rss_mb = peak_rss_mb();
  http->stop();
  service->stop();
  collect_traced(p, obs, sched);
  p.counters["http.conns_accepted"] -= conns_before;
  p.counters["http.bytes_out"] -= bytes_before;
  p.counters["http.stream_events"] -= events_before;
  return p;
}

// ---------------------------------------------------------------------------
// Correctness gate (outside the timed window)
// ---------------------------------------------------------------------------

bool completed(const Observed& o) {
  return o.terminals == 1 && !o.error && static_cast<int>(o.tokens.size()) == o.expected;
}

/// Exactly one terminal event per request, sent = completed + failed in the
/// service's own records, and token streams equal to the single-stage
/// greedy reference: for every frontdoor request, for a seeded subset of
/// each batch-decode burst. Returns one line per problem, naming the request.
std::vector<std::string> check_round(const Workload& w, const RoundResult& r, std::uint64_t seed,
                                     int round) {
  std::vector<std::string> problems;
  std::map<std::int64_t, int> records_per_id;
  std::map<std::int64_t, bool> record_completed;
  for (const auto& rec : r.records) {
    ++records_per_id[rec.id];
    record_completed[rec.id] = rec.completed;
  }
  for (const Observed& o : r.requests) {
    const std::string req = "request " + std::to_string(o.id) + ": ";
    if (o.terminals != 1)
      problems.push_back(req + std::to_string(o.terminals) + " terminal events");
    if (records_per_id[o.id] != 1)
      problems.push_back(req + std::to_string(records_per_id[o.id]) + " service records");
    if (completed(o)) {
      if (!record_completed[o.id]) problems.push_back(req + "service did not record completion");
    } else {
      problems.push_back(req + "failed (" + std::to_string(o.tokens.size()) + " of " +
                         std::to_string(o.expected) + " tokens)");
    }
  }
  if (r.records.size() != r.requests.size())
    problems.push_back("round " + std::to_string(round) + ": sent " +
                       std::to_string(r.requests.size()) + " but the service recorded " +
                       std::to_string(r.records.size()));

  // Which inputs to regenerate with the reference.
  const std::vector<Request>& inputs = r.inputs;
  std::vector<std::size_t> entries;
  if (w.reference_checks == 0) {
    std::vector<bool> used(inputs.size(), false);
    for (const Observed& o : r.requests) used[static_cast<std::size_t>(o.entry)] = true;
    for (std::size_t i = 0; i < inputs.size(); ++i)
      if (used[i]) entries.push_back(i);
  } else {
    util::Rng rng(seed + 77 + static_cast<std::uint64_t>(round) * 7919);
    std::vector<std::size_t> order(inputs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    order.resize(std::min(order.size(), static_cast<std::size_t>(w.reference_checks)));
    entries = order;
  }
  std::vector<nn::GenRequest> gens;
  for (std::size_t e : entries) gens.push_back(to_gen(inputs[e]));
  const runtime::RuntimeOptions defaults;
  const auto reference =
      nn::generate_reference(w.model, defaults.weight_seed, gens, defaults.kv_block_size);
  std::map<std::size_t, const std::vector<nn::TokenId>*> expected;
  for (std::size_t i = 0; i < entries.size(); ++i) expected[entries[i]] = &reference[i];
  for (const Observed& o : r.requests) {
    const auto it = expected.find(static_cast<std::size_t>(o.entry));
    if (it == expected.end() || !completed(o)) continue;
    if (o.tokens != *it->second) {
      std::size_t at = 0;
      while (at < o.tokens.size() && o.tokens[at] == (*it->second)[at]) ++at;
      problems.push_back("request " + std::to_string(o.id) + ": token mismatch at position " +
                         std::to_string(at));
    }
  }
  return problems;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Sample counts behind the latency metrics, echoed in the run record.
struct SampleCounts {
  std::vector<double> primary_by_round;  ///< primary rate of each untraced round
  std::size_t ttft = 0;
  std::size_t itl = 0;
};

/// Throughput of one round over all of it: output tokens and completed
/// requests, each over the time from the round's open to its last token.
struct RoundRates {
  double tok_per_s = 0.0;
  double req_per_s = 0.0;
};

RoundRates round_rates(const RoundResult& r) {
  double tokens = 0.0, done = 0.0;
  for (const Observed& o : r.requests) {
    if (!completed(o)) continue;
    tokens += static_cast<double>(o.tokens.size());
    done += 1.0;
  }
  if (r.elapsed_s <= 0.0) return {};
  return {tokens / r.elapsed_s, done / r.elapsed_s};
}

/// End-to-end metrics of an untraced pass: throughput is the median of the
/// per-round rates, latencies pool the samples of every round.
std::map<std::string, double> end_to_end(const Workload& w, const PassResult& pass,
                                         SampleCounts& counts) {
  std::vector<double> ttft_ms, itl_ms, tok_rates, req_rates;
  std::vector<perfbench::RequestOutcome> outcomes;
  for (const RoundResult& r : pass.rounds) {
    for (const Observed& o : r.requests) {
      perfbench::RequestOutcome out;
      out.completed = completed(o);
      if (out.completed) {
        out.ttft_s = o.token_at.front() - o.due_s;
        ttft_ms.push_back(out.ttft_s * 1e3);
        for (std::size_t i = 1; i < o.token_at.size(); ++i)
          itl_ms.push_back((o.token_at[i] - o.token_at[i - 1]) * 1e3);
        if (o.token_at.size() > 1)
          out.mean_tpot_s = (o.token_at.back() - o.token_at.front()) /
                            static_cast<double>(o.token_at.size() - 1);
      }
      outcomes.push_back(out);
    }
    const RoundRates rates = round_rates(r);
    tok_rates.push_back(rates.tok_per_s);
    req_rates.push_back(rates.req_per_s);
  }
  counts.primary_by_round = w.kind == Kind::kBatchDecode ? tok_rates : req_rates;
  counts.ttft = ttft_ms.size();
  counts.itl = itl_ms.size();
  std::map<std::string, double> m;
  m["setup_s"] = perfbench::median(pass.setup_s);
  m["peak_rss_mb"] = pass.peak_rss_mb;
  m["ttft_p50_ms"] = perfbench::median(ttft_ms);
  m["ttft_tail_ms"] = perfbench::percentile(ttft_ms, w.ttft_tail_p);
  m["itl_p50_ms"] = perfbench::median(itl_ms);
  m["itl_tail_ms"] = perfbench::percentile(itl_ms, w.itl_tail_p);
  m["slo_attainment"] = w.ttft_limit_s > 0.0 ? perfbench::slo_attainment(
                                                   outcomes, w.ttft_limit_s, w.tpot_limit_s)
                                             : 0.0;
  m["output_tok_per_s"] = perfbench::median(tok_rates);
  m["req_per_s"] = perfbench::median(req_rates);
  return m;
}

/// The rate obs.trace_overhead compares (higher is better for both).
double primary_rate(Kind kind, const RoundResult& r) {
  const RoundRates rates = round_rates(r);
  return kind == Kind::kBatchDecode ? rates.tok_per_s : rates.req_per_s;
}

/// Median batch shapes the decorator recorded: what the nn probe replays.
struct Shapes {
  int decode_rows = 1;
  int decode_ctx = 1;
  int prefill_tokens = 1;
};

Shapes median_shapes(const std::vector<PlanSample>& plans) {
  std::vector<double> rows, ctx, prefill;
  for (const PlanSample& s : plans) {
    if (s.decode_rows > 0) {
      rows.push_back(s.decode_rows);
      ctx.push_back(s.decode_ctx_mean);
    }
    if (s.prefill_tokens > 0) prefill.push_back(s.prefill_tokens);
  }
  Shapes out;
  out.decode_rows = std::max(1, static_cast<int>(std::lround(perfbench::median(rows))));
  out.decode_ctx = std::max(1, static_cast<int>(std::lround(perfbench::median(ctx))));
  out.prefill_tokens = std::max(1, static_cast<int>(std::lround(perfbench::median(prefill))));
  return out;
}

struct StageTimes {
  double forward_ms = 0.0;
  double logits_ms = 0.0;
};

/// Median time of TransformerStage::forward (and logits() on the last
/// stage) over repeated calls on one batch shape.
StageTimes time_stage(nn::TransformerStage& stage, std::vector<nn::ItemView> items,
                      int rows) {
  const auto& cfg = stage.config();
  const std::vector<nn::TokenId> tokens(static_cast<std::size_t>(rows), 1);
  tensor::Tensor input;
  if (stage.shape().has_embedding) {
    input = stage.embed(tokens);
  } else {
    input = tensor::Tensor({rows, cfg.hidden});
    float* d = input.data();
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(rows) * cfg.hidden; ++i)
      d[i] = 0.01f * static_cast<float>(i % 17 - 8);
  }
  for (auto& item : items) item.wants_logits = stage.shape().has_lm_head;
  std::vector<double> fwd, lg;
  constexpr int kWarm = 2, kReps = 15;
  for (int rep = 0; rep < kWarm + kReps; ++rep) {
    tensor::Tensor h = input;
    const auto a = Clock::now();
    stage.forward(h, items);
    const auto b = Clock::now();
    if (stage.shape().has_lm_head) (void)stage.logits(h, items);
    const auto c = Clock::now();
    if (rep < kWarm) continue;
    fwd.push_back(seconds_between(a, b) * 1e3);
    lg.push_back(seconds_between(b, c) * 1e3);
  }
  return {perfbench::median(fwd), perfbench::median(lg)};
}

/// The nn probe: each partition stage built standalone, timed on the
/// workload's median decode and prefill shapes.
std::map<std::string, double> nn_probe(const Workload& w, const Shapes& s) {
  const runtime::RuntimeOptions defaults;
  const int bs = defaults.kv_block_size;
  const model::PartitionPlan plan(w.model, w.pp);
  const int per_item = (s.decode_ctx + 1 + bs - 1) / bs;
  const int decode_blocks = per_item * s.decode_rows;
  const int prefill_blocks = (s.prefill_tokens + bs - 1) / bs;
  std::vector<nn::ItemView> decode(static_cast<std::size_t>(s.decode_rows));
  for (int r = 0; r < s.decode_rows; ++r) {
    auto& item = decode[static_cast<std::size_t>(r)];
    item.context = s.decode_ctx;
    item.n_tokens = 1;
    for (int b = 0; b < per_item; ++b) item.blocks.push_back(r * per_item + b);
  }
  std::vector<nn::ItemView> prefill(1);
  prefill[0].n_tokens = s.prefill_tokens;
  for (int b = 0; b < prefill_blocks; ++b) prefill[0].blocks.push_back(b);

  std::map<std::string, double> m;
  for (const int idx : {0, w.pp - 1}) {
    nn::TransformerStage stage(w.model, plan.stage(idx), defaults.weight_seed,
                               std::max(decode_blocks, prefill_blocks), bs);
    const std::string key = idx == 0 ? "nn.stagefirst" : "nn.stagelast";
    const StageTimes d = time_stage(stage, decode, s.decode_rows);
    const StageTimes f = time_stage(stage, prefill, s.prefill_tokens);
    m[key + ".decode_ms"] = d.forward_ms + d.logits_ms;
    m[key + ".prefill_ms"] = f.forward_ms + f.logits_ms;
    if (idx == w.pp - 1)
      m["nn.lm_head_share"] = d.logits_ms / std::max(1e-12, d.forward_ms + d.logits_ms);
  }
  return m;
}

/// Forward spans and wait spans per stage, from the traced round's events.
std::map<std::string, double> runtime_spans(const Workload& w, const PassResult& p) {
  const perfbench::Interval window = p.rounds.front().window;
  std::vector<std::vector<perfbench::Edge>> fwd(static_cast<std::size_t>(w.pp));
  std::vector<std::vector<perfbench::Edge>> meta(fwd.size()), act(fwd.size());
  for (const obs::TraceEvent& ev : p.events) {
    if (ev.track < 0 || ev.track >= w.pp || ev.phase == obs::EventPhase::kInstant) continue;
    const perfbench::Edge edge{ev.phase == obs::EventPhase::kBegin, ev.ts};
    const auto t = static_cast<std::size_t>(ev.track);
    if (std::strcmp(ev.name, "forward") == 0) fwd[t].push_back(edge);
    else if (std::strcmp(ev.name, "wait.meta") == 0) meta[t].push_back(edge);
    else if (std::strcmp(ev.name, "wait.act") == 0) act[t].push_back(edge);
  }
  std::map<std::string, double> m;
  std::vector<std::vector<perfbench::Interval>> busy;
  std::vector<double> mean_forward;
  for (std::size_t s = 0; s < fwd.size(); ++s) {
    auto spans = perfbench::clip(perfbench::pair_edges(fwd[s]), window);
    auto waits = perfbench::pair_edges(meta[s]);
    const auto acts = perfbench::pair_edges(act[s]);
    waits.insert(waits.end(), acts.begin(), acts.end());
    const std::string key = "runtime.stage" + std::to_string(s);
    m[key + ".busy_share"] = perfbench::busy_share(spans, window);
    m[key + ".wait_share"] = perfbench::busy_share(waits, window);
    mean_forward.push_back(spans.empty() ? 0.0
                                         : perfbench::total_length(spans) /
                                               static_cast<double>(spans.size()));
    busy.push_back(std::move(spans));
  }
  const double mean_of_means = perfbench::mean(mean_forward);
  m["runtime.stage_imbalance"] =
      mean_of_means > 0.0 ? *std::max_element(mean_forward.begin(), mean_forward.end()) /
                                mean_of_means
                          : 0.0;
  m["runtime.bubble_share"] = perfbench::bubble_share(busy, window);
  return m;
}

/// Layer metrics of a traced run. `untraced` holds the end-to-end metrics of
/// its untraced pass and `untraced_round0` that pass's first round; `traced`
/// replayed the same round with spans and the decorator.
std::map<std::string, double> per_layer(const Workload& w,
                                        const std::map<std::string, double>& untraced,
                                        const RoundResult& untraced_round0,
                                        const PassResult& traced) {
  const RoundResult& round = traced.rounds.front();
  std::map<std::string, double> m;
  for (const char* name :
       {"slo_attainment", "ttft_p50_ms", "ttft_tail_ms", "itl_p50_ms", "itl_tail_ms"})
    m[std::string("e2e.") + name] = untraced.at(name);

  // sched: the decorator's view of every plan() in the round.
  std::vector<double> plan_us, prefill, decode, batch_tokens, wp, rd, kv_free;
  std::vector<Clock::time_point> dispatch_at;
  std::size_t empty = 0;
  for (const PlanSample& s : traced.plans) {
    plan_us.push_back(s.plan_us);
    wp.push_back(static_cast<double>(s.wp_tokens));
    rd.push_back(static_cast<double>(s.rd));
    kv_free.push_back(s.kv_free);
    if (s.prefill_tokens + s.decode_rows == 0) {
      ++empty;
      continue;
    }
    prefill.push_back(s.prefill_tokens);
    decode.push_back(s.decode_rows);
    batch_tokens.push_back(s.prefill_tokens + s.decode_rows);
    dispatch_at.push_back(s.at);
  }
  m["sched.plan_p50_us"] = perfbench::median(plan_us);
  m["sched.plan_p99_us"] = perfbench::percentile(plan_us, 99.0);
  m["sched.prefill_tokens_per_batch"] = perfbench::mean(prefill);
  m["sched.decode_rows_per_batch"] = perfbench::mean(decode);
  m["sched.batch_tokens_cv"] = perfbench::cv(batch_tokens);
  m["sched.iter_period_ms"] =
      dispatch_at.size() > 1 ? seconds_between(dispatch_at.front(), dispatch_at.back()) * 1e3 /
                                   static_cast<double>(dispatch_at.size() - 1)
                             : 0.0;
  m["sched.empty_plan_share"] =
      plan_us.empty() ? 0.0 : static_cast<double>(empty) / static_cast<double>(plan_us.size());
  m["sched.wp_tokens_mean"] = perfbench::mean(wp);
  m["sched.rd_mean"] = perfbench::mean(rd);
  m["sched.kv_free_min"] = kv_free.empty() ? 0.0 : *std::min_element(kv_free.begin(), kv_free.end());
  m["sched.kv_free_mean"] = perfbench::mean(kv_free);

  // runtime: submit() as the generator timed it, the service's own records,
  // and the stage spans the workers emit.
  m["runtime.submit_p50_us"] = perfbench::median(round.submit_us);
  m["runtime.submit_p99_us"] = perfbench::percentile(round.submit_us, 99.0);
  std::vector<double> internal_ms;
  std::map<std::int64_t, double> internal_by_id;
  double preemptions = 0.0, chunks = 0.0;
  for (const auto& rec : round.records) {
    preemptions += rec.preemptions;
    chunks += static_cast<double>(rec.scheduled_chunks.size());
    if (!rec.completed) continue;
    internal_ms.push_back(rec.ttft * 1e3);
    internal_by_id[rec.id] = rec.ttft * 1e3;
  }
  m["runtime.ttft_internal_p50_ms"] = perfbench::median(internal_ms);
  m["runtime.preemptions"] = preemptions;
  m["runtime.prefill_chunks_per_req"] =
      round.records.empty() ? 0.0 : chunks / static_cast<double>(round.records.size());
  for (const auto& [name, value] : runtime_spans(w, traced)) m[name] = value;

  // engine / kv: the registry the service increments.
  for (const char* name : {"engine.preemptions_total", "engine.stalled_prefill_resets_total",
                           "engine.tokens_scheduled_total"})
    m[name] = traced.counters.at(name);

  // nn: standalone stages on this workload's median batch shapes.
  for (const auto& [name, value] : nn_probe(w, median_shapes(traced.plans))) m[name] = value;

  // server: client TTFT minus the runtime's, matched by id, and the
  // gllm_http_* counters (frontdoor only; 0 where no server runs).
  std::vector<double> front_door_ms;
  double out_tokens = 0.0;
  for (const Observed& o : round.requests) {
    out_tokens += static_cast<double>(o.tokens.size());
    const auto it = internal_by_id.find(o.id);
    if (w.kind != Kind::kFrontdoor || it == internal_by_id.end() || o.token_at.empty())
      continue;
    front_door_ms.push_back((o.token_at.front() - o.due_s) * 1e3 - it->second);
  }
  const double sent = static_cast<double>(round.requests.size());
  m["server.front_door_p50_ms"] = perfbench::median(front_door_ms);
  m["server.bytes_out_per_req"] = sent > 0 ? traced.counters.at("http.bytes_out") / sent : 0.0;
  m["server.stream_events_per_token"] =
      out_tokens > 0 ? traced.counters.at("http.stream_events") / out_tokens : 0.0;
  m["server.conns_accepted"] = traced.counters.at("http.conns_accepted");
  m["server.backpressure_events"] = traced.counters.at("http.backpressure_events");

  // bench: validity of the measurement itself.
  m["bench.send_lag_p99_ms"] = perfbench::percentile(round.send_lag_ms, 99.0);
  m["bench.callback_p99_us"] = perfbench::percentile(round.callback_us, 99.0);
  double failed = 0.0;
  for (const Observed& o : round.requests)
    if (!completed(o)) failed += 1.0;
  m["bench.failed_share"] = sent > 0 ? failed / sent : 0.0;

  // obs: what tracing cost on the same inputs, and whether the rings kept
  // every event.
  m["obs.trace_overhead"] = primary_rate(w.kind, untraced_round0) /
                            std::max(1e-12, primary_rate(w.kind, round));
  m["obs.trace_dropped"] = static_cast<double>(traced.trace_dropped);
  return m;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

template <std::size_t N>
std::string metrics_json(const MetricDef (&defs)[N], const std::map<std::string, double>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end())
      throw std::logic_error(std::string("metric not computed: ") + defs[i].name);
    if (i > 0) out += ", ";
    out += json_string(defs[i].name) + ": {\"value\": " + json_number(it->second) +
           ", \"unit\": " + json_string(defs[i].unit) + "}";
  }
  return out + "}";
}

template <std::size_t N>
std::string links_json(const MetricDef (&defs)[N]) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    if (i > 0) out += ", ";
    out += json_string(defs[i].name) + ": {\"unit\": " + json_string(defs[i].unit);
    if (defs[i].moves[0] != '\0') out += ", \"moves\": " + json_string(defs[i].moves);
    out += "}";
  }
  return out + "}";
}

std::string run_record(const Workload& w, std::uint64_t seed, double seconds, bool trace,
                       const std::string& command, const SampleCounts& counts,
                       double ring_fill, const std::vector<std::string>& problems) {
  const char* threads = std::getenv("GLLM_THREADS");
  std::ostringstream os;
  os << "{\"run_record\": {\"workload\": " << json_string(w.name)
     << ", \"why\": " << json_string(w.why) << ", \"seed\": " << seed
     << ", \"seconds\": " << json_number(seconds) << ", \"trace\": " << (trace ? 1 : 0)
     << ", \"command\": " << json_string(command)
     << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"isa\": " << json_string(nn::kernels::isa_name(nn::kernels::resolve_isa()))
     << ", \"gllm_threads\": " << json_string(threads != nullptr ? threads : "unset") << "}"
     << ", \"constants\": {\"model\": " << json_string(w.model.name) << ", \"pp\": " << w.pp
     << ", \"kv_capacity_tokens\": " << w.kv_capacity << ", \"burst\": " << w.burst
     << ", \"connections\": " << w.connections << ", \"rounds\": " << w.rounds
     << ", \"burst_s\": " << json_number(w.burst_s)
     << ", \"ttft_limit_s\": " << json_number(w.ttft_limit_s)
     << ", \"tpot_limit_s\": " << json_number(w.tpot_limit_s) << "}"
     << ", \"round_rates\": [";
  for (std::size_t i = 0; i < counts.primary_by_round.size(); ++i)
    os << (i > 0 ? ", " : "") << json_number(counts.primary_by_round[i]);
  os << "]"
     << ", \"tails\": {\"ttft\": {\"percentile\": " << json_number(w.ttft_tail_p)
     << ", \"samples\": " << counts.ttft
     << ", \"supported\": " << (perfbench::tail_percentile(counts.ttft) >= w.ttft_tail_p ? "true" : "false")
     << "}, \"itl\": {\"percentile\": " << json_number(w.itl_tail_p)
     << ", \"samples\": " << counts.itl
     << ", \"supported\": " << (perfbench::tail_percentile(counts.itl) >= w.itl_tail_p ? "true" : "false")
     << "}}, \"trace_ring_fill\": " << json_number(ring_fill) << ", \"problems\": [";
  for (std::size_t i = 0; i < problems.size() && i < 20; ++i)
    os << (i > 0 ? ", " : "") << json_string(problems[i]);
  os << "], \"metrics\": {\"end_to_end\": " << links_json(kEndToEnd)
     << ", \"per_layer\": " << links_json(kPerLayer) << "}}}";
  return os.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Set-ups an untraced pass times; setup_s is their median.
constexpr int kSetups = 15;

int run(const Args& args, const std::string& command) {
  const Workload w = make_workload(args.workload);
  const double frontdoor_round_s = args.seconds / w.rounds;
  const int bursts =
      w.kind == Kind::kBatchDecode
          ? std::max(w.rounds, static_cast<int>(std::lround(args.seconds / w.burst_s)))
          : 0;
  // The untraced pass measures about --seconds; a traced pass replays its
  // round 0.
  const auto pass = [&](bool traced, std::size_t ring) {
    const int setups = traced ? 1 : kSetups;
    return w.kind == Kind::kFrontdoor
               ? run_frontdoor_pass(w, args.seed, frontdoor_round_s, traced ? 1 : w.rounds,
                                    traced, setups, ring)
               : run_service_pass(w, args.seed, traced ? 1 : bursts, traced, setups, ring);
  };

  std::vector<std::string> problems;
  std::size_t attempted = 0, failed = 0;
  const auto account = [&](const PassResult& p) {
    for (std::size_t r = 0; r < p.rounds.size(); ++r) {
      const RoundResult& round = p.rounds[r];
      for (auto& problem : check_round(w, round, args.seed, static_cast<int>(r)))
        problems.push_back(std::move(problem));
      attempted += round.requests.size();
      for (const Observed& o : round.requests)
        if (!completed(o)) ++failed;
    }
  };

  const PassResult untraced = pass(false, 1);
  account(untraced);
  SampleCounts counts;
  std::map<std::string, double> metrics = end_to_end(w, untraced, counts);
  double ring_fill = 0.0;
  if (args.trace) {
    // Round 0 once more on a fresh service with the same set-up and warm-up:
    // spans on, the plan decorator in, a ring sized so no event is dropped.
    const double traced_s =
        w.kind == Kind::kFrontdoor ? frontdoor_round_s : untraced.rounds.front().elapsed_s;
    const std::size_t ring = std::max<std::size_t>(
        1 << 16, static_cast<std::size_t>(static_cast<double>(w.trace_events_per_s) *
                                          (2.0 * traced_s + 5.0)));
    const PassResult traced = pass(true, ring);
    account(traced);
    metrics = per_layer(w, metrics, untraced.rounds.front(), traced);
    ring_fill = static_cast<double>(traced.max_track_events) / static_cast<double>(ring);
    if (traced.trace_dropped > 0)
      problems.push_back("trace ring dropped " + std::to_string(traced.trace_dropped) +
                         " events");
  }

  const bool correct = problems.empty() && attempted > 0;
  for (const auto& problem : problems) std::cerr << "perfbench: " << problem << "\n";
  std::cout << run_record(w, args.seed, args.seconds, args.trace, command, counts, ring_fill,
                          problems)
            << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": "
            << (args.trace ? metrics_json(kPerLayer, metrics) : metrics_json(kEndToEnd, metrics))
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string command;
  for (int i = 0; i < argc; ++i) command += (i > 0 ? " " : "") + std::string(argv[i]);
  try {
    return run(parse_args(argc, argv), command);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_serving: " << e.what() << "\n";
    return 2;
  }
}
