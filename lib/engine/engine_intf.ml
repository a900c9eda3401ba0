(* The topology-parameterized engine surface.  See engine_intf.mli —
   this module only declares types and module types, so the two files
   are textually identical. *)

type run_result = {
  sends : int;
  deliveries : int;
  quiescent : bool;
  all_terminated : bool;
  exhausted : bool;
  termination_order : int list;
}

(* A program-state snapshot codec: [save] encodes the program's whole
   mutable state as a flat int array, [load] restores it exactly.
   Programs expose one through their [snap] field to opt into the
   model checker's incremental-undo backtracking; [None] keeps the
   checker on its replay-from-prefix fallback. *)
type snapshot = { save : unit -> int array; load : int array -> unit }

module type NETWORK = sig
  type topology
  type 'm t
  type 'm api
  type 'm program

  (* The surface starts from a built network: each engine's own
     constructors also choose what its messages carry
     ([Network.carry]). *)

  val run :
    ?max_deliveries:int ->
    ?snapshot_every:int ->
    ?probe:(step:int -> unit) ->
    'm t ->
    Scheduler.t ->
    run_result

  val step : 'm t -> Scheduler.t -> bool
  val force_step : 'm t -> link:int -> unit

  (* Incremental undo: [force_step_undo] is [force_step] plus an undo
     record capturing everything the delivery mutated (the popped
     envelope, the destination's program snapshot, queue/metric/clock
     effects of the wake); [undo_step] restores the pre-delivery state
     exactly.  Records must be undone in LIFO order.  Only legal when
     [undo_capable] holds: every program carries a [snap] codec and no
     user sink observes the run (events cannot be unemitted). *)
  type 'm undo

  val undo_capable : 'm t -> bool
  val force_step_undo : 'm t -> link:int -> 'm undo
  val undo_step : 'm t -> 'm undo -> unit
  val enabled_count : 'm t -> int
  val enabled_link : 'm t -> after:int -> int
  val fingerprint : 'm t -> string
  val topology : 'm t -> topology
  val size : 'm t -> int
  val num_links : topology -> int
  val link_dst_node : topology -> int -> int
  val output : 'm t -> int -> Output.t
  val outputs : 'm t -> Output.t array
  val terminated : 'm t -> int -> bool
  val all_terminated : 'm t -> bool
  val termination_order : 'm t -> int list
  val inspect : 'm t -> int -> (string * int) list
  val inspect_counter : 'm t -> int -> string -> int
  val metrics : 'm t -> Metrics.t
  val in_flight : 'm t -> int
  val mailbox_backlog : 'm t -> int
  val is_quiescent : 'm t -> bool
end
