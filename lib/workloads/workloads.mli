(** The evaluation workloads of §7.

    - {b Single operators} (§7.1): ten operator families — C1D, C2D, C3D,
      GMM, GRP, DIL, DEP, T2D, CAP, NRM — each with four shape
      configurations drawn from common DNNs, at two batch sizes.
    - {b Subgraphs} (§7.2): ConvLayer (conv2d + batch-norm + ReLU) and TBG
      (transpose + transpose + batch matmul), four shapes each.
    - {b Networks} (§7.3): ResNet-50, MobileNet-V2, 3D-ResNet-18, the
      DCGAN generator and BERT, expressed as their unique subgraph tasks
      with appearance counts w_i — the exact inputs of the task
      scheduler. *)

open Ansor_te

type case = { case_name : string; dag : Dag.t }

val op_names : string list
(** ["C1D"; "C2D"; "C3D"; "GMM"; "GRP"; "DIL"; "DEP"; "T2D"; "CAP";
    "NRM"] — the x-axis of Figure 6. *)

val op_cases : op:string -> batch:int -> case list
(** Four shape configurations of one operator family.
    @raise Invalid_argument on unknown names. *)

val single_op_suite : batch:int -> (string * case list) list
(** All ten operator families. *)

val conv_layer_cases : batch:int -> case list
val tbg_cases : batch:int -> case list

type net = { net_name : string; layers : (case * int) list }
(** Unique subgraphs with their appearance counts. *)

val resnet50 : batch:int -> net
val mobilenet_v2 : batch:int -> net
val resnet3d_18 : batch:int -> net
val dcgan : batch:int -> net
val bert : batch:int -> net

val networks : batch:int -> net list
(** The five networks of Figure 9, in paper order. *)

val net_tasks :
  machine:Ansor_machine.Machine.t ->
  net ->
  (Ansor_search.Task.t * int) list
(** The network's tuning tasks (with weights) on a machine. *)

(** {1 Additional networks (beyond the paper's five)} *)

val vgg16 : batch:int -> net
(** Classic heavy-conv CNN: large 3x3 convolutions and three dense
    layers — a compute-bound stress test for the task scheduler. *)

val squeezenet_fire : batch:int -> net
(** A SqueezeNet "fire" stage: squeeze 1x1 followed by parallel expand
    1x1 / 3x3 convolutions — many small heterogeneous tasks. *)

val extended_networks : batch:int -> net list
(** The three extra networks above. *)
