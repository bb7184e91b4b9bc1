(** One diagnostic produced by the PAL static analyzer.

    A finding names the rule that fired, where in the image it fired
    (byte offset of the responsible instruction), how bad it is, and a
    human-readable explanation. Rule ids are stable strings of the form
    [family/name] ([decode/invalid], [toctou/input-overwrites-code],
    [taint/unsealed-secret-to-output], …) so policies and tests can match
    on them without parsing messages. *)

type severity =
  | Error  (** The image must not be launched (an {!Analyzer.gate} of
               [Enforce] refuses it). *)
  | Warn  (** Suspicious but launchable — e.g. a TOCTOU overwrite whose
              input is covered by the measurement chain. *)
  | Info  (** Analysis facts worth surfacing (step bounds, loop notes). *)

type t = {
  rule : string;  (** Stable rule id, [family/name]. *)
  severity : severity;
  offset : int;  (** Byte offset of the flagged instruction. *)
  message : string;
}

val make : rule:string -> severity:severity -> offset:int -> string -> t

val compare : t -> t -> int
(** Orders by severity (errors first), then offset, then rule. *)

val to_string : t -> string
(** ["error @0064 toctou/...: message"]. *)

val pp : Format.formatter -> t -> unit
