(** The one request/parameter schema every front end consumes.

    Before this module, the analysis parameters — grid size, counter length,
    noise levels, solver and smoother choice — existed as three hand-rolled
    copies of default handling inside the [cdr_analyze] subcommands, and the
    serving layer would have added a fourth. This module is the single
    definition: the field set, the defaults, the [Config.t] conversion, and
    the JSON codec the JSONL protocol uses. [cdr_analyze] builds a [t] from
    its command-line flags; [cdr_serve] builds one from a request's
    ["params"] object; both then call {!to_config}.

    The wire codec is versioned. Schema version 2 (canonical, emitted by
    {!to_json}) nests the noise fields under ["noise"], the loop geometry
    under ["loop"], splits the data transition density into [p01]/[p10],
    and may carry an ["env"] Markov-modulated environment spec
    ({!Cdr_env.Env}). The original flat version-1 shape — including the
    collapsed ["p_transition"] alias — is still accepted field for field,
    but counts in the ["serve.deprecated_params"] metric and warns once per
    process. Both versions accept a ["scenario"] field naming a
    {!Cdr.Scenario} preset that seeds the defaults before explicit fields
    apply. *)

type solver = [ `Multigrid | `Power | `Gauss_seidel ]

type t = {
  grid : int;  (** phase-error grid bins over [[-1/2, 1/2)] *)
  phases : int;  (** VCO clock phases (selector step [G = 1/phases] UI) *)
  counter : int;  (** up/down counter overflow length [K] *)
  sigma_w : float;  (** std of the white Gaussian eye-opening jitter, UI *)
  drift_mean : float;  (** mean of the [n_r] drift jitter, grid bins/bit *)
  drift_max : int;  (** support bound of the [n_r] drift jitter, grid bins *)
  max_run : int;  (** longest run of identical data bits *)
  p01 : float;  (** per-bit data transition probability 0 -> 1 *)
  p10 : float;  (** per-bit data transition probability 1 -> 0 *)
  solver : solver;
  smoother : Markov.Multigrid.smoother;
  backend : Cdr_op.kind;
      (** operator representation the solve runs on: [`Csr] (default) or the
          matrix-free [`Kron]. Request kinds the matrix-free backend cannot
          serve reject [`Kron] with [bad_request] instead of falling back,
          and so does {!to_config} for the [`Gauss_seidel] solver. *)
  env : Cdr_env.Env.t option;
      (** Markov-modulated jitter environment composed with the CDR chain.
          Only the ["env"] request kind consumes it; the protocol rejects it
          on any other kind. *)
}

val default : t
(** The paper's running example plus the historical CLI defaults
    (multigrid, lex smoother, the SONET-flavoured drift of the examples);
    [p01 = p10 = 0.5], no environment. *)

val to_config : t -> (Cdr.Config.t, string) result
(** Validated {!Cdr.Config.t} (the drift pmf is built from
    [drift_mean]/[drift_max]); [Error] carries the validation message. Also
    the one place the [`Gauss_seidel] solver, which has no matrix-free
    sweep, is rejected on the [`Kron] backend, for the CLI and the service
    alike. *)

val of_scenario : Cdr.Scenario.t -> t
(** The parameter record equivalent to a scenario preset: config-derived
    fields from the scenario, solver machinery at the schema defaults. *)

val string_of_backend : Cdr_op.kind -> string

val of_json : ?defaults:t -> Cdr_obs.Jsonl.t -> (t, string) result
(** Decode a ["params"] object: every field optional (missing fields come
    from [defaults], default {!default}), [Null] meaning "all defaults".
    Accepts schema version 1 (flat, deprecated) and 2 (nested); a
    ["scenario"] field seeds the decoding defaults from the named preset
    before any explicit field applies, whatever its position. Rejects
    unknown fields, wrong-typed values, v2 nested objects in a v1 request
    (and vice versa) and non-objects with a descriptive [Error] — a service
    must fail loudly on a typo'd field name, not silently analyze the
    default circuit. *)

val to_json : t -> Cdr_obs.Jsonl.t
(** Canonical schema-version-2 object in fixed field order ([env] omitted
    when absent). [of_json] round-trips it exactly, so equivalent v1/v2
    requests re-encode to identical bytes and share cache keys. *)

val structure_key : t -> string
(** Batching key: equal for two parameter sets exactly when their chains
    share state space and solver machinery — the state-space fields ([grid],
    [phases], [counter], [drift_max], [max_run], the environment spec) plus
    [solver], [smoother] (a multigrid setup is keyed on the smoother too)
    and [backend]. The noise fields ([sigma_w], [drift_mean], [p01], [p10])
    are deliberately excluded: those are the deltas {!Cdr.Model.rebuild}
    turns into in-place refills. *)

val model_key : t -> string
(** {!structure_key} without the solver/smoother suffix: equal exactly when
    {!Cdr.Model.rebuild} can reuse the state enumeration and sparsity
    pattern, whatever solver runs on top. Parameter sets with an
    environment carry its {!Cdr_env.Env.key} suffix and never collide with
    plain CDR models. *)
