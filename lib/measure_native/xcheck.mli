(** Sim-vs-native cross-check: does the simulator rank real programs the
    way the hardware does?

    The search trusts relative order, not absolute latency — evolution
    keeps whichever candidate scores better.  This report quantifies how
    much of that order survives the jump from the analytical simulator to
    gcc-compiled wall-clock: per task, it samples K random complete
    programs, measures every unique one on both backends, and reports the
    Spearman rank correlation plus top-1 / top-5 agreement.  Exposed on
    the CLI as [ansor xcheck]. *)

type task_report = {
  xr_task : string;
  xr_sampled : int;  (** states drawn from the sampler *)
  xr_unique : int;  (** distinct lowered programs among them *)
  xr_measured : int;  (** programs with an [Ok] native latency *)
  xr_compile_errors : int;
  xr_run_failures : int;  (** native run errors + timeouts *)
  xr_spearman : float;
      (** rank correlation between simulator estimate and native
          wall-clock over the measured programs (0 when fewer than 2) *)
  xr_top1_agree : bool;
      (** both backends pick the same fastest program *)
  xr_top5_overlap : float;
      (** fraction of the simulator's top-5 also in the native top-5 *)
}

type report = {
  x_machine : string;
  x_sample : int;
  x_seed : int;
  x_tasks : task_report list;
}

val run :
  ?config:Measure_native.config ->
  ?sample:int ->
  ?seed:int ->
  machine:Ansor_machine.Machine.t ->
  (string * Ansor_te.Dag.t) list ->
  report
(** [run ~machine cases] cross-checks each named DAG with [sample]
    (default 32) random programs at [seed] (default 0). *)

val to_json : report -> string
(** Stable single-object JSON: machine, sample, seed, and one object per
    task. *)

val summary : report -> string
(** Human-readable per-task lines for the terminal. *)
