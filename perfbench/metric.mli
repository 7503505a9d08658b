(** The benchmark's own metric arithmetic, kept apart from the runs so it
    can be tested against synthetic inputs.

    Times are integers in virtual milliseconds unless a name says
    otherwise; wall times are floats in seconds. *)

val median : float list -> float
(** Middle value (mean of the two middle values for an even count).
    Raises [Invalid_argument] on []. *)

val normalised : float list -> ref_s:float list -> float
(** [normalised unit_s ~ref_s] is [median unit_s /. median ref_s]: wall
    time expressed in multiples of the reference kernel timed in the same
    process. Raises [Invalid_argument] on an empty list or a non-positive
    reference median. *)

type command = { submit : int; apply : int option }
(** One submitted command: when it was submitted and when (if ever) its
    proxy applied it. *)

val latencies : command list -> int array
(** [apply - submit] of every applied command, in list order. *)

val deadline_failures : horizon:int -> deadline:int -> command list -> int * int
(** [(attempted, failed)] under the deadline rule: a command submitted at
    or before [horizon - deadline] is attempted, and failed unless it was
    applied within [deadline] of its submission. Later submissions cannot
    be judged within the horizon and are not counted. *)

val slo_met : p99_limit:int -> window:int -> horizon:int -> command list -> bool
(** A rung meets the SLO when the p99 of its applied latencies is at most
    [p99_limit] and its backlog does not grow: at least 99% of the commands
    submitted before [horizon - window] were applied. A rung that applied
    nothing fails. *)

val max_rate_slo : (int * bool) list -> int
(** Highest rate among [(rate, slo_met)] rungs that met the SLO; [0] when
    none did. *)

val longest_gap : after:int -> until:int -> int list -> int
(** Longest interval inside [\[after, until\]] that holds no response
    time: the gaps between [after], every response time in the interval
    (in any order) and [until]. *)
