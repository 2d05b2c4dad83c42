(** Load generation for the serving tier.

    A closed-loop driver (send, wait, send again) can never overload the
    system it measures: the clients slow down with the server, and the
    coordinated-omission bias hides exactly the tail latencies a serving
    tier exists to control.  It is still the right driver for measuring
    compiled programs, so [arrival_rate = 0] selects it ({!closed_loop}).
    Any positive rate synthesizes an {e open-loop} arrival trace — a non-homogeneous Poisson process with
    configurable burst episodes and a per-tenant request mix — in {e
    virtual time}, as pure data.  The {!Server} replays the trace through
    a discrete-event loop, so overload experiments are deterministic and
    bit-reproducible for any seed: no wall clocks, no sleeps, no flaky
    tests.

    Arrivals are drawn by thinning at the peak rate; burst episodes
    multiply the base rate over an interval (overlapping episodes
    compose multiplicatively).  Each request is assigned a tenant by
    weighted choice; the tenant record carries the admission layer's
    token-bucket quota parameters and its queue priority. *)

type tenant = {
  name : string;
  weight : float;  (** share of offered traffic (relative) *)
  quota_rate : float;
      (** token-bucket refill, requests per virtual second ([infinity]
          disables the quota) *)
  quota_burst : float;  (** bucket capacity ([infinity] disables) *)
  priority : int;
      (** admission-queue priority under [Priority] discipline (higher is
          served first) *)
}

val default_tenant : tenant
(** ["default"], weight 1, unlimited quota, priority 0. *)

type burst = {
  after : float;  (** episode start, virtual seconds *)
  len : float;  (** episode length, virtual seconds *)
  factor : float;  (** rate multiplier (> 1 spike, < 1 lull) *)
}

type config = {
  arrival_rate : float;
      (** base rate, requests per virtual second; [0] means closed loop *)
  bursts : burst list;
  tenants : tenant list;
  seed : int;
}

val default_config : config
(** 1000 req/s, no bursts, the single default tenant, seed 0. *)

type request = {
  id : int;  (** dense, 0-based — doubles as the per-request RNG key *)
  tenant : tenant;
  arrival : float;  (** virtual seconds, nondecreasing in [id] *)
}

val generate : config -> n:int -> request array
(** [generate config ~n] returns the first [n] arrivals of the trace,
    sorted by arrival time.  Equal configs yield equal traces.
    @raise Invalid_argument on a non-positive rate, malformed burst,
    empty/negative-weight tenant mix, or negative [n]. *)

val closed_loop : config -> n:int -> request array
(** [closed_loop config ~n] returns [n] requests with dense ids and tenants
    drawn from the mix, every [arrival] 0: in closed loop the {!Server}
    issues a request the moment a service slot frees and stamps its
    arrival then.  The rate and bursts are ignored.
    @raise Invalid_argument on an empty/negative-weight tenant mix or
    negative [n]. *)

val rate_factor : burst list -> float -> float
(** The combined burst multiplier at a virtual instant (1.0 outside every
    episode).  Exposed for tests. *)

(** {1 CLI spec parsing}

    Shared by [ansor serve] and the tests: [--burst "START:LEN:FACTOR"]
    and [--tenants "NAME:WEIGHT[:QUOTA_RATE[:QUOTA_BURST[:PRIORITY]]],..."].
    Omitted quota fields mean unlimited; [QUOTA_BURST] defaults to
    [QUOTA_RATE]. *)

val burst_of_spec : string -> (burst, string) result
val tenant_of_spec : string -> (tenant, string) result

val tenants_of_spec : string -> (tenant list, string) result
(** Comma-separated tenant specs; the empty string means
    [[default_tenant]].  Rejects duplicate names. *)
